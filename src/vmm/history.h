// One checkpoint history: the engine under TimeTravel (reverse debugging),
// FlightLoop (continuous capture) and multiverse forks. DESIGN.md §4
// "History" has the full contract.
//
//   capture   one checksummed Machine::save + Lvmm::save stream; in delta
//             mode guest memory travels as a shared copy-on-write page
//             table (PhysMem::capture_cow), so a checkpoint costs only the
//             pages dirtied since the previous one.
//   ring      checkpoints sorted by retired-instruction count, filled from
//             a periodic instruction hook.
//   restore   adopt the page table, then walk the stream — into this
//             machine or any identically configured one.
//   replay    deterministic re-execution to an instruction boundary with
//             the UART/NIC host sinks muted; timing is unchanged.
//
// History charges nothing. A consumer that bills its checkpoints charges
// in its own boundary callback, before capturing, and arms with
// HookPhase::kCharge; observers arm with kObserve. The machine fires every
// kCharge hook due at a boundary before any kObserve hook, so a capture
// always holds its boundary's charges and a replay never misses one.
#pragma once

#include <deque>
#include <vector>

#include "vmm/lvmm.h"

namespace vdbg::vmm {

class History {
 public:
  struct Checkpoint {
    u64 icount = 0;      // retired instructions at save time
    Cycles cycles = 0;   // simulated time at save time
    /// Snapshot stream. In delta mode the PhysMem section is an
    /// external-contents sentinel and `mem` carries the actual pages.
    std::vector<u8> bytes;
    /// COW page-table capture (empty in full-stream mode). Copying a
    /// Checkpoint retains the shared frames — cheap.
    cpu::CowPages mem;
    const cpu::CowPages* cow() const { return mem.empty() ? nullptr : &mem; }
    /// Marginal bytes this checkpoint keeps alive: stream size plus, in
    /// delta mode, freshly-dirtied frames and the sparse index (frames
    /// shared with older ring entries are not re-counted).
    u64 stored_bytes = 0;
  };

  /// Simulated-cycle budget for one replay pass.
  static constexpr Cycles kReplayBudget = 4'000'000'000ULL;

  explicit History(Lvmm& mon) : mon_(mon) {}
  ~History() { disarm(); }
  History(const History&) = delete;
  History& operator=(const History&) = delete;

  /// Installs the periodic boundary hook; `on_boundary` decides what to
  /// capture and store.
  void arm(u64 every, hw::Machine::HookPhase phase,
           hw::Machine::InstrHook on_boundary);
  void disarm();
  bool armed() const { return hook_id_ != 0; }

  /// Captures the machine + monitor at the current position without
  /// storing it.
  Checkpoint capture(bool cow_delta = true) const;
  /// Files `cp` in icount order and returns true. A checkpoint at an icount
  /// already held replaces it and returns false: a replay re-reaching a
  /// boundary captures bit-identical state.
  bool store(Checkpoint cp);
  void evict_oldest() { ring_.pop_front(); }
  const std::deque<Checkpoint>& ring() const { return ring_; }
  const Checkpoint* newest_at_or_below(u64 icount) const;

  /// Restores a stream (plus its COW image when `mem` is non-null) into
  /// `m` and, when non-null, `mon`. Static so fork targets need not own a
  /// History.
  static bool restore(hw::Machine& m, Lvmm* mon, const std::vector<u8>& bytes,
                      const cpu::CowPages* mem);
  bool restore(const Checkpoint& cp) {
    return restore(mon_.machine(), &mon_, cp.bytes, cp.cow());
  }

  /// Re-runs forward to `target` retired instructions with the host sinks
  /// muted, clearing guest-exit latches that re-fire during replay (the
  /// original timeline ran past them). Returns the final stop reason.
  hw::Machine::StopReason replay_to(u64 target);

 private:
  Lvmm& mon_;
  std::deque<Checkpoint> ring_;  // sorted by icount, oldest first
  int hook_id_ = 0;              // add_instr_hook registration while armed
};

}  // namespace vdbg::vmm
