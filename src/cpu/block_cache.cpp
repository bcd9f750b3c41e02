#include "cpu/block_cache.h"

namespace vdbg::cpu {

CachedBlock* BlockCache::build(PAddr pa, const PhysMem& mem, u64& builds,
                               u64& invals) {
  CachedBlock& slot = slot_for(pa);
  const u64 version = mem.page_version(pa >> kPageBits);
  if (slot.valid && slot.pa == pa && slot.version != version) {
    ++invals;  // code page written since decode
  }

  // (Re)decode forward from `pa`. Blocks never cross a page boundary so a
  // single page version covers the whole block, and in-page offsets make the
  // virtual and physical instruction streams advance in lockstep.
  const PAddr page_end = (pa & ~PAddr{kPageMask}) + kPageSize;
  u16 n = 0;
  PAddr p = pa;
  while (n < kMaxBlockInstrs && p + kInstrBytes <= page_end &&
         mem.contains(p, kInstrBytes)) {
    u8 bytes[kInstrBytes];
    mem.read_block(p, bytes);
    if (!opcode_valid(bytes[0])) break;
    slot.instrs[n] = Instr::decode(bytes);
    const bool term = is_block_terminator(slot.instrs[n].op);
    ++n;
    p += kInstrBytes;
    if (term) break;
  }
  if (n == 0) {
    slot.valid = false;
    return nullptr;
  }
  slot.pa = pa;
  slot.version = version;
  slot.count = n;
  slot.valid = true;
  ++builds;
  return &slot;
}

void BlockCache::invalidate_all(u64& invals) {
  for (auto& b : blocks_) {
    if (b.valid) {
      b.valid = false;
      ++invals;
    }
  }
}

}  // namespace vdbg::cpu
