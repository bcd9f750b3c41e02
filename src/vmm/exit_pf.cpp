// Page-fault exits: shadow-paging sync, emulated guest page-table writes,
// and write-watchpoints. The faulting store is decoded at most once per
// exit (decode_faulting_store caches the decode in the ExitContext).
#include "vmm/lvmm.h"

#include <algorithm>
#include <set>

namespace vdbg::vmm {

using cpu::Fault;
using cpu::Opcode;

void Lvmm::handle_page_fault(ExitContext& ctx) {
  const Fault& f = ctx.fault;
  if (!vcpu_.paging_enabled()) {
    // Identity phase: the guest touched memory it does not own (e.g. the
    // monitor region). Reflect as a protection #PF.
    reflect(Fault::pf(f.cr2, f.errcode), st().pc);
    return;
  }
  const auto out =
      shadow_->handle_fault(vcpu_.vcr[cpu::kCr3], f.cr2, f.errcode);
  switch (out.kind) {
    case ShadowMmu::FaultOutcome::kSynced:
      charge(cfg_.costs.shadow_sync);
      ++stats_.shadow_syncs;
      trace(TraceKind::kShadowSync, 0, 0, f.cr2);
      machine_.cpu().mmu().invlpg(f.cr2);
      return;  // hidden fault: restart the instruction
    case ShadowMmu::FaultOutcome::kPtWrite: {
      StoreInfo store;
      if (!decode_faulting_store(ctx, store)) {
        guest_crash();
        return;
      }
      handle_pt_write(out.target_pa, store);
      return;
    }
    case ShadowMmu::FaultOutcome::kWatchWrite: {
      StoreInfo store;
      if (!decode_faulting_store(ctx, store)) {
        guest_crash();
        return;
      }
      handle_watch_write(f, store);
      return;
    }
    case ShadowMmu::FaultOutcome::kReflect:
      reflect(Fault::pf(f.cr2, out.guest_errcode), st().pc);
      return;
  }
}

/// Decodes the store that raised this exit, fetching the instruction only
/// if no earlier pipeline stage already did. False when the instruction
/// cannot be fetched or is not a store (a faulting "write" from a non-store
/// should not happen).
// charge:exempt(decode helper; callers charge per fault outcome)
bool Lvmm::decode_faulting_store(ExitContext& ctx, StoreInfo& out) {
  if (!ctx.have_instr) {
    if (!fetch_guest_instr(ctx.instr)) return false;
    ctx.have_instr = true;
  }
  switch (ctx.instr.op) {
    case Opcode::kSt8: out.size = 1; break;
    case Opcode::kSt16: out.size = 2; break;
    case Opcode::kSt32: out.size = 4; break;
    default:
      return false;
  }
  auto& s = st();
  out.value = s.regs[ctx.instr.rs2 & (cpu::kNumGprs - 1)];
  out.ea = s.regs[ctx.instr.rs1 & (cpu::kNumGprs - 1)] + ctx.instr.imm;
  return true;
}

void Lvmm::handle_pt_write(PAddr target_pa, const StoreInfo& store) {
  shadow_->pt_write(target_pa, store.size, store.value);
  machine_.cpu().mmu().flush_tlb();  // derived translations changed
  charge(cfg_.costs.pt_write_emulate);
  retire_emulated(st().pc + cpu::kInstrBytes);
  ++stats_.pt_writes;
  trace(TraceKind::kPtWrite, 0, 0, target_pa);
}

void Lvmm::handle_watch_write(const Fault& f, const StoreInfo& store) {
  // Emulate the store (post-write watch semantics, as GDB reports), then
  // either notify the debugger (range hit) or resume silently (same page,
  // unwatched bytes). A hit reports the watchpoint, never a step stop too:
  // one stop reply per resume.
  auto& s = st();
  PAddr pa = 0;
  if (!guest_va_to_pa(store.ea, /*write=*/true, pa)) {
    reflect(Fault::pf(store.ea, f.errcode), s.pc);
    return;
  }
  shadow_->pt_write(pa, store.size, store.value);  // invalidates PT frames
  machine_.cpu().mmu().flush_tlb();
  charge(cfg_.costs.pt_write_emulate);

  const u32 next_pc = s.pc + cpu::kInstrBytes;
  for (const auto& w : watches_) {
    if (store.ea < w.va + w.len && w.va < store.ea + store.size) {
      s.pc = next_pc;
      watch_hit_ =
          WatchHit{std::max(store.ea, w.va), store.value, store.size, s.pc};
      if (debug_) {
        freeze_guest(DebugDelegate::StopReason::kWatchpoint);
      }
      return;
    }
  }
  // Unwatched bytes of a watched page: silent single-store emulation.
  retire_emulated(next_pc);
}

// charge:exempt(debugger bookkeeping, not a guest exit path)
void Lvmm::sync_watch_pages() {
  std::set<u32> vpns;
  for (const auto& w : watches_) {
    for (u32 vpn = w.va >> cpu::kPageBits;
         vpn <= (w.va + w.len - 1) >> cpu::kPageBits; ++vpn) {
      vpns.insert(vpn);
    }
  }
  // Remove stale pages, add new ones.
  for (u32 vpn = 0; vpn < (cfg_.guest_mem_limit >> cpu::kPageBits); ++vpn) {
    const bool want = vpns.count(vpn) != 0;
    const bool have = shadow_->is_watched_vpn(vpn);
    if (want && !have) shadow_->add_watch_page(vpn);
    if (!want && have) shadow_->remove_watch_page(vpn);
  }
  machine_.cpu().mmu().flush_tlb();
}

// charge:exempt(debugger API, not a guest exit path)
bool Lvmm::add_watchpoint(VAddr va, u32 len) {
  if (!vcpu_.paging_enabled() || len == 0) return false;
  watches_.push_back({va, len});
  sync_watch_pages();
  return true;
}

// charge:exempt(debugger API, not a guest exit path)
bool Lvmm::remove_watchpoint(VAddr va, u32 len) {
  for (auto it = watches_.begin(); it != watches_.end(); ++it) {
    if (it->va == va && it->len == len) {
      watches_.erase(it);
      sync_watch_pages();
      return true;
    }
  }
  return false;
}

}  // namespace vdbg::vmm
