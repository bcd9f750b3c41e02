// Time-travel debugging: reverse execution on a checkpoint History
// (vmm/history.h; DESIGN.md §4 "History").
//
// Every `interval` retired instructions the controller bills a checkpoint
// (checkpoint_base + checkpoint_per_page x resident pages, costs.h — a pure
// function of guest state, so a replay re-charges it identically) and then
// captures one. Reverse execution is restore + deterministic re-execution,
// stopping sooner:
//
//   reverse_stepi     replay from the newest checkpoint at-or-below N-1 to
//                     boundary N-1: exactly one retired instruction back.
//   reverse_continue  per window, newest first: a scan pass records every
//                     breakpoint/watchpoint hit up to the current position,
//                     then a landing pass replays to the LAST one. With no
//                     hit anywhere the guest lands frozen on the oldest
//                     checkpoint.
//
// While replaying, the controller is the monitor's DebugDelegate and steps
// over breakpoint patches as the stub's `c` does. Only debugger-quiet
// windows replay bit-identically, so the stub anchors a checkpoint at every
// interactive resume ('c'/'s'); windows reaching back across earlier stops
// replay without that wire traffic's charges.
#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <optional>
#include <vector>

#include "vmm/history.h"

namespace vdbg::vmm {

class TimeTravel final : public DebugDelegate {
 public:
  struct Config {
    /// Retired guest instructions between periodic checkpoints.
    u64 interval = 50'000;
    /// Checkpoints kept (oldest evicted). Bounds reverse reach to roughly
    /// ring x interval instructions.
    std::size_t ring = 8;
    /// Delta checkpoints: memory is captured as a shared copy-on-write page
    /// table instead of being serialized into the stream, so a checkpoint
    /// only pays for pages dirtied since the previous capture. Kill switch
    /// for ablation (bench_checkpoint gates the byte drop).
    bool cow_delta = true;
  };

  using Checkpoint = History::Checkpoint;

  struct Stats {
    u64 checkpoints = 0;           // snapshots stored (first save per boundary)
    u64 restores = 0;              // successful snapshot restores
    u64 replay_passes = 0;         // forward re-execution passes
    u64 replayed_instructions = 0; // instructions re-executed across passes
    u64 checkpoint_bytes = 0;      // marginal stored bytes across checkpoints
    u64 cow_fresh_pages = 0;       // freshly-dirtied frames across checkpoints
    Cycles checkpoint_charged_cycles = 0;  // simulated cost billed for them
  };

  enum class ReverseOutcome : u8 {
    kStopped,       // landed on a breakpoint/watchpoint/step boundary
    kAtCheckpoint,  // no hit in recorded history: frozen on oldest checkpoint
    kNoHistory,     // no checkpoint earlier than the current position
    kError,         // restore/replay failed (guest left frozen, best effort)
  };
  struct ReverseStop {
    ReverseOutcome outcome = ReverseOutcome::kError;
    StopReason reason = StopReason::kStep;
    u64 icount = 0;  // retired-instruction position after the operation
  };

  explicit TimeTravel(Lvmm& mon) : TimeTravel(mon, Config()) {}
  TimeTravel(Lvmm& mon, Config cfg) : mon_(mon), cfg_(cfg), history_(mon) {}

  /// Installs the periodic checkpoint hook on the machine (and takes no
  /// checkpoint itself — the first fires at the next interval boundary).
  void enable();
  void disable() { history_.disarm(); }
  bool enabled() const { return history_.armed(); }
  const Config& config() const { return cfg_; }

  /// Takes a checkpoint at the current position, charged like a periodic
  /// one. Always succeeds.
  bool checkpoint_now();
  std::size_t checkpoint_count() const { return history_.ring().size(); }
  const std::deque<Checkpoint>& checkpoints() const {
    return history_.ring();
  }
  const Stats& stats() const { return stats_; }

  /// Registers vmm.tt.* counters. The controller is host-side (its stats
  /// are not serialized into snapshots), so nothing here is replay-exact.
  void register_metrics(MetricsRegistry& reg) {
    reg.add_counter("vmm.tt.checkpoints", &stats_.checkpoints,
                    /*replay_exact=*/false);
    reg.add_counter("vmm.tt.restores", &stats_.restores,
                    /*replay_exact=*/false);
    reg.add_counter("vmm.tt.replay_passes", &stats_.replay_passes,
                    /*replay_exact=*/false);
    reg.add_counter("vmm.tt.replayed_instructions",
                    &stats_.replayed_instructions, /*replay_exact=*/false);
    reg.add_counter("vmm.tt.checkpoint_bytes", &stats_.checkpoint_bytes,
                    /*replay_exact=*/false);
    reg.add_counter("vmm.tt.cow_fresh_pages", &stats_.cow_fresh_pages,
                    /*replay_exact=*/false);
    reg.add_counter("vmm.tt.checkpoint_charged_cycles",
                    &stats_.checkpoint_charged_cycles,
                    /*replay_exact=*/false);
    reg.add_gauge(
        "vmm.tt.ring_depth", [this] { return double(checkpoint_count()); },
        /*replay_exact=*/false);
  }

  /// Full machine+monitor state as one checksummed stream (the
  /// qVdbg.Snapshot payload). load_state() restores it and, when the guest
  /// was frozen at the call, re-freezes it quietly (no delegate report).
  std::vector<u8> save_state() const;
  bool load_state(const std::vector<u8>& bytes);

  /// Reverse execution. Call only while the guest is frozen. On success the
  /// guest is left frozen at the landing position; on kNoHistory the state
  /// is untouched.
  ReverseStop reverse_stepi();
  ReverseStop reverse_continue();

  /// Restores `cp` into an arbitrary identically-configured machine (+
  /// monitor when non-null) — a forked timeline adopting the checkpoint's
  /// COW pages. Static so fork targets need not own a TimeTravel.
  static bool restore_checkpoint_into(hw::Machine& m, Lvmm* mon,
                                      const Checkpoint& cp) {
    return History::restore(m, mon, cp.bytes, cp.cow());
  }

  /// Breakpoint-patch table lookup (addr -> original byte), owned by the
  /// stub. Used for transparent step-over during replay and to classify
  /// #BP ownership when no previous delegate exists.
  using PatchLookup = std::function<std::optional<u8>(VAddr)>;
  void set_patch_lookup(PatchLookup fn) { patch_lookup_ = std::move(fn); }
  /// Invoked after every snapshot restore so the debug front end can
  /// reconcile host-side state with the rolled-back memory image (the stub
  /// re-applies breakpoint patches inserted after the checkpoint was taken).
  void set_post_restore(std::function<void()> fn) {
    post_restore_ = std::move(fn);
  }

  // --- DebugDelegate (installed only while replaying) ---
  bool owns_breakpoint(VAddr pc) override;
  bool wants_step() override;
  void on_guest_stop(StopReason reason) override;
  void on_uart_activity() override;

 private:
  enum class Mode : u8 { kIdle, kScan, kLand };

  hw::Machine& machine() const { return mon_.machine(); }
  u64 icount() const { return machine().cpu().stats().instructions; }
  /// Boundary hook: bill the checkpoint, then capture and store it.
  void on_boundary();
  void charge_checkpoint();
  /// History::restore plus the debugger reconciliation: the watch set is
  /// host truth, and post_restore re-applies breakpoint patches.
  bool restore_state(const std::vector<u8>& bytes, const cpu::CowPages* mem);
  void begin_replay();
  /// Ends the session; an error outcome leaves the guest frozen.
  ReverseStop end_replay(ReverseStop out);
  /// One replay pass: restore `cp` (taking over a breakpoint step-over it
  /// was captured in the middle of), then run forward to `end` in `mode`,
  /// passing through every stop short of it. False when the restore fails.
  bool replay_pass(const Checkpoint& cp, Mode mode, u64 end);
  /// Records a held stop and breaks the machine out of its run loop before
  /// the frozen-service (the stub) can run mid-replay.
  void hold(StopReason reason);
  /// Resumes through an intermediate replay stop exactly like the stub's
  /// `c`: breakpoints are un-patched, single-stepped and re-patched.
  void transparent_resume(StopReason reason);
  /// Freezes the guest without a delegate report (boundary landings,
  /// load_state, error containment).
  void freeze_quietly(StopReason reason);

  Lvmm& mon_;
  Config cfg_;
  History history_;
  Stats stats_;

  PatchLookup patch_lookup_;
  std::function<void()> post_restore_;

  // Replay-session state (valid between begin_replay/end_replay).
  bool replaying_ = false;
  Mode mode_ = Mode::kIdle;
  DebugDelegate* prev_delegate_ = nullptr;
  u64 pass_end_ = 0;  // pass through stops below this icount
  bool scan_inclusive_ = false;  // scan: also record a hit at == pass_end_
  std::optional<u64> last_hit_;  // scan: newest hit in the window
  std::optional<VAddr> step_over_;
  bool held_ = false;
  StopReason held_reason_ = StopReason::kStep;
  bool suppress_stop_ = false;  // freeze_quietly in flight
  bool replay_failed_ = false;
};

}  // namespace vdbg::vmm
