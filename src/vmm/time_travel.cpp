#include "vmm/time_travel.h"

#include "cpu/isa.h"

namespace vdbg::vmm {

void TimeTravel::enable() {
  // kCharge: the hook bills simulated cycles, so it fires before any
  // observer's capture on a shared boundary (see vmm/history.h).
  history_.arm(cfg_.interval, hw::Machine::HookPhase::kCharge,
               [this](u64) { on_boundary(); });
}

// --------------------------------------------------------------------------
// Checkpointing
// --------------------------------------------------------------------------

void TimeTravel::charge_checkpoint() {
  // Per *resident* page: a pure function of guest state at the boundary, so
  // a replay reaching the same boundary re-charges the identical amount.
  const auto& costs = mon_.config().costs;
  const u64 pages = machine().mem().nonzero_pages();
  const Cycles cost = costs.checkpoint_base + costs.checkpoint_per_page * pages;
  mon_.charge(cost);
  stats_.checkpoint_charged_cycles += cost;
}

void TimeTravel::on_boundary() {
  // Charge before capturing so the snapshot holds the post-charge state:
  // restoring a checkpoint then resumes *after* that boundary's checkpoint
  // work, and the next replayed boundary re-charges its own. The charge
  // stays a function of *resident* pages even in delta mode — charging for
  // fresh pages would make the cost depend on host-side capture history
  // (e.g. a resume-anchored checkpoint resets freshness) and break replay
  // cycle-identity.
  charge_checkpoint();
  Checkpoint cp = history_.capture(cfg_.cow_delta);
  const u64 bytes = cp.stored_bytes;
  const u64 fresh = cp.mem.fresh_pages();
  if (!history_.store(std::move(cp))) return;  // refreshed by a replay
  ++stats_.checkpoints;
  stats_.checkpoint_bytes += bytes;
  stats_.cow_fresh_pages += fresh;
  while (history_.ring().size() > cfg_.ring) history_.evict_oldest();
}

bool TimeTravel::checkpoint_now() {
  on_boundary();
  return true;  // serialisation cannot fail
}

// --------------------------------------------------------------------------
// Snapshot save/load (qVdbg.Snapshot) and restore
// --------------------------------------------------------------------------

std::vector<u8> TimeTravel::save_state() const {
  return history_.capture(/*cow_delta=*/false).bytes;
}

bool TimeTravel::load_state(const std::vector<u8>& bytes) {
  const bool was_frozen = mon_.guest_frozen();
  if (!restore_state(bytes, nullptr)) return false;
  if (was_frozen && !mon_.guest_frozen()) {
    freeze_quietly(StopReason::kStep);
  }
  return true;
}

bool TimeTravel::restore_state(const std::vector<u8>& bytes,
                               const cpu::CowPages* mem) {
  // The debugger's current watch set is host truth; the snapshot carries
  // the set as of checkpoint time. Capture the desired set first, restore,
  // then reconcile — a no-op (no writes, no charges) when they match.
  const auto desired = mon_.watchpoint_list();
  if (!History::restore(machine(), &mon_, bytes, mem)) return false;
  ++stats_.restores;
  const auto restored = mon_.watchpoint_list();
  if (restored != desired) {
    for (const auto& w : restored) mon_.remove_watchpoint(w.first, w.second);
    for (const auto& w : desired) mon_.add_watchpoint(w.first, w.second);
  }
  if (post_restore_) post_restore_();
  return true;
}

// --------------------------------------------------------------------------
// Replay session plumbing
// --------------------------------------------------------------------------

void TimeTravel::begin_replay() {
  prev_delegate_ = mon_.debug_delegate();
  mon_.set_debug_delegate(this);
  replaying_ = true;
  replay_failed_ = false;
}

TimeTravel::ReverseStop TimeTravel::end_replay(ReverseStop out) {
  if (out.outcome == ReverseOutcome::kError && !mon_.guest_frozen()) {
    freeze_quietly(StopReason::kStep);  // containment: never leave it running
    out.icount = icount();
  }
  mon_.set_debug_delegate(prev_delegate_);
  prev_delegate_ = nullptr;
  replaying_ = false;
  mode_ = Mode::kIdle;
  return out;
}

bool TimeTravel::replay_pass(const Checkpoint& cp, Mode mode, u64 end) {
  mode_ = mode;
  pass_end_ = end;
  last_hit_.reset();
  held_ = false;
  step_over_.reset();
  if (!restore_state(cp.bytes, cp.cow())) return false;
  // A checkpoint anchored at a resume that steps over a breakpoint holds
  // the site un-patched with the trap flag armed, and post_restore leaves
  // it so. The recorded run executed the original instruction there and
  // re-patched when the step completed; replay does the same.
  const auto& st = machine().cpu().state();
  u8 cur = 0;
  if (st.trap_flag() && patch_lookup_ && patch_lookup_(st.pc) &&
      mon_.guest_peek_raw(st.pc, cur) &&
      cur != static_cast<u8>(cpu::Opcode::kBrk)) {
    step_over_ = st.pc;
  }
  ++stats_.replay_passes;
  const u64 before = icount();
  const auto r = history_.replay_to(end);
  stats_.replayed_instructions += icount() - before;
  if (r == hw::Machine::StopReason::kBudget ||
      r == hw::Machine::StopReason::kShutdown ||
      r == hw::Machine::StopReason::kIdleDeadlock) {
    replay_failed_ = true;
  }
  return true;
}

void TimeTravel::hold(StopReason reason) {
  held_ = true;
  held_reason_ = reason;
  machine().external_stop();
}

void TimeTravel::freeze_quietly(StopReason reason) {
  DebugDelegate* prev = mon_.debug_delegate();
  mon_.set_debug_delegate(this);
  suppress_stop_ = true;
  mon_.freeze_guest(reason);
  suppress_stop_ = false;
  mon_.set_debug_delegate(prev);
}

// --------------------------------------------------------------------------
// DebugDelegate — replay-time stop handling
// --------------------------------------------------------------------------

bool TimeTravel::owns_breakpoint(VAddr pc) {
  if (prev_delegate_) return prev_delegate_->owns_breakpoint(pc);
  return patch_lookup_ && patch_lookup_(pc).has_value();
}

bool TimeTravel::wants_step() { return step_over_.has_value(); }

void TimeTravel::on_uart_activity() {
  // Acknowledge exactly as the stub's service() would (reading IIR clears a
  // THRE indication, charge-free): a checkpoint taken just after a resume
  // still has the reply's transmit-drain events in flight, and leaving the
  // level asserted would storm the interrupt path for the whole replay.
  // RX is NOT drained: a debugger-quiet window has none, and replay must
  // not consume bytes the live stub will read after the landing.
  (void)machine().uart().io_read(2);
}

void TimeTravel::on_guest_stop(StopReason reason) {
  if (suppress_stop_ || !replaying_) return;
  const u64 ic = icount();

  // Completion of our own transparent step-over: re-patch, keep going.
  if (reason == StopReason::kStep && step_over_) {
    if (!mon_.guest_poke_raw(*step_over_,
                             static_cast<u8>(cpu::Opcode::kBrk))) {
      replay_failed_ = true;
      hold(reason);
      return;
    }
    step_over_.reset();
    mon_.resume_guest();
    return;
  }

  if (mode_ == Mode::kScan) {
    // A stop retiring exactly at the window's end boundary belongs to this
    // window only when the boundary is a checkpoint from a newer window
    // (the freeze precedes a checkpoint taken at the same icount, e.g. a
    // resume-anchored one); when the boundary is the reverse origin itself,
    // that stop IS the origin and must not be re-recorded. Step stops are
    // never hits — they are artifacts of a trap flag captured by a
    // checkpoint taken mid-single-step.
    const bool in_window =
        ic < pass_end_ || (scan_inclusive_ && ic == pass_end_);
    if (in_window && reason != StopReason::kStep) last_hit_ = ic;
  }
  // Pass through every stop short of the pass's end; a crash is unpassable.
  if (mode_ != Mode::kIdle && ic < pass_end_ && reason != StopReason::kCrash) {
    transparent_resume(reason);
  } else {
    hold(reason);
  }
}

void TimeTravel::transparent_resume(StopReason reason) {
  if (reason == StopReason::kBreakpoint) {
    const VAddr pc = machine().cpu().state().pc;
    std::optional<u8> orig;
    if (patch_lookup_) orig = patch_lookup_(pc);
    if (!orig || !mon_.guest_poke_raw(pc, *orig)) {
      replay_failed_ = true;
      hold(reason);
      return;
    }
    step_over_ = pc;
    mon_.arm_single_step();
  }
  mon_.resume_guest();
}

// --------------------------------------------------------------------------
// Reverse execution
// --------------------------------------------------------------------------

TimeTravel::ReverseStop TimeTravel::reverse_stepi() {
  const u64 origin = icount();
  const Checkpoint* cp =
      origin == 0 ? nullptr : history_.newest_at_or_below(origin - 1);
  if (!cp) return {ReverseOutcome::kNoHistory, StopReason::kStep, origin};
  const Checkpoint snap = *cp;  // ring may mutate during replay

  begin_replay();
  ReverseStop out;
  if (replay_pass(snap, Mode::kLand, origin - 1)) {
    if (held_) {
      out = {ReverseOutcome::kStopped, held_reason_, icount()};
    } else if (icount() == origin - 1 && !replay_failed_) {
      freeze_quietly(StopReason::kStep);
      out = {ReverseOutcome::kStopped, StopReason::kStep, icount()};
    }
  }
  return end_replay(out);
}

TimeTravel::ReverseStop TimeTravel::reverse_continue() {
  const u64 origin = icount();
  // Candidate checkpoints strictly below the origin, newest first. Copies:
  // replay passes refresh the ring underneath us.
  std::vector<Checkpoint> cands;
  const auto& ring = history_.ring();
  for (auto it = ring.rbegin(); it != ring.rend(); ++it) {
    if (it->icount < origin) cands.push_back(*it);
  }
  if (cands.empty()) {
    return {ReverseOutcome::kNoHistory, StopReason::kStep, origin};
  }

  begin_replay();
  ReverseStop out;
  u64 window_end = origin;
  for (const Checkpoint& cp : cands) {
    // Scan pass over the window up from cp: find the last hit. The first
    // window ends at (and excludes) the origin stop; older windows end at
    // (and include) the next-newer checkpoint's boundary.
    scan_inclusive_ = window_end != origin;
    if (!replay_pass(cp, Mode::kScan, window_end) || replay_failed_) {
      return end_replay(out);
    }
    if (last_hit_) {
      // Landing pass: restore again, replay to the last hit and keep that
      // stop frozen.
      const u64 target = *last_hit_;
      if (replay_pass(cp, Mode::kLand, target) && held_) {
        out = {ReverseOutcome::kStopped, held_reason_, icount()};
      }
      return end_replay(out);
    }
    window_end = cp.icount;
  }
  // No hit anywhere in recorded history: land on the oldest checkpoint.
  mode_ = Mode::kIdle;
  if (restore_state(cands.back().bytes, cands.back().cow())) {
    freeze_quietly(StopReason::kStep);
    out = {ReverseOutcome::kAtCheckpoint, StopReason::kStep, icount()};
  }
  return end_replay(out);
}

}  // namespace vdbg::vmm
