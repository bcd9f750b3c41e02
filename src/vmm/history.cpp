#include "vmm/history.h"

#include <algorithm>

namespace vdbg::vmm {

void History::arm(u64 every, hw::Machine::HookPhase phase,
                  hw::Machine::InstrHook on_boundary) {
  if (armed()) return;
  hook_id_ = mon_.machine().add_instr_hook(every, std::move(on_boundary),
                                           phase);
}

void History::disarm() {
  if (!armed()) return;
  mon_.machine().remove_instr_hook(hook_id_);
  hook_id_ = 0;
}

History::Checkpoint History::capture(bool cow_delta) const {
  hw::Machine& m = mon_.machine();
  Checkpoint cp;
  cp.icount = m.cpu().stats().instructions;
  cp.cycles = m.now();
  SnapshotWriter w;
  if (cow_delta) cp.mem = m.mem().capture_cow();
  m.save(w, /*external_mem=*/cow_delta);
  mon_.save(w);
  cp.bytes = w.finish();
  cp.stored_bytes = cp.bytes.size() + cp.mem.retained_bytes();
  return cp;
}

bool History::store(Checkpoint cp) {
  auto it = std::lower_bound(
      ring_.begin(), ring_.end(), cp.icount,
      [](const Checkpoint& c, u64 v) { return c.icount < v; });
  if (it != ring_.end() && it->icount == cp.icount) {
    *it = std::move(cp);
    return false;
  }
  ring_.insert(it, std::move(cp));
  return true;
}

const History::Checkpoint* History::newest_at_or_below(u64 icount) const {
  auto it = std::upper_bound(
      ring_.begin(), ring_.end(), icount,
      [](u64 v, const Checkpoint& c) { return v < c.icount; });
  return it == ring_.begin() ? nullptr : &*std::prev(it);
}

bool History::restore(hw::Machine& m, Lvmm* mon, const std::vector<u8>& bytes,
                      const cpu::CowPages* mem) {
  SnapshotReader r(bytes);
  if (!r.ok()) return false;
  // Adopt the COW image before walking the stream: the stream's PhysMem
  // section is an external-contents sentinel, and the monitor's restore
  // may consult guest memory.
  if (mem && !m.mem().adopt_cow(*mem)) return false;
  if (!m.restore(r)) return false;
  return mon == nullptr || mon->restore(r);
}

hw::Machine::StopReason History::replay_to(u64 target) {
  hw::Machine& m = mon_.machine();
  m.uart().set_tx_muted(true);
  m.nic().set_wire_muted(true);
  hw::Machine::StopReason r;
  while ((r = m.run_to_instruction(target, kReplayBudget)) ==
         hw::Machine::StopReason::kGuestExit) {
    m.clear_guest_exit();
  }
  m.uart().set_tx_muted(false);
  m.nic().set_wire_muted(false);
  return r;
}

}  // namespace vdbg::vmm
