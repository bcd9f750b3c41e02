// The flight loop: always-on bounded continuous capture for one machine.
//
// While armed it keeps a rolling replay window behind the live position:
// a History ring of copy-on-write checkpoints every `interval` retired
// instructions (vmm/history.h), the exit-trace cursor at each, a bounded
// metrics time series (SeriesRing) sampled at the same boundaries, and
// optionally the CPU's deterministic PC profiler. Eviction keeps the
// checkpoint and trace windows aligned — a checkpoint whose trace tail has
// started to be overwritten is dropped — so verify_window() can prove on
// demand that restore + re-execution reproduces the recorded tail.
//
// Captures are host-side observation and charge no simulated cycles (the
// hook is a kObserve one, after any charging hook on the same boundary);
// ablation_flightloop_overhead gates the whole stack at < 2% per exit.
#pragma once

#include <cstddef>
#include <deque>
#include <string>

#include "common/series.h"
#include "vmm/history.h"

namespace vdbg::vmm {

class FlightLoop {
 public:
  struct Config {
    /// Retired guest instructions between ring checkpoints.
    u64 interval = 50'000;
    /// Checkpoints kept; the replay window is roughly ring x interval
    /// instructions behind the live position.
    std::size_t ring = 8;
    /// Metrics snapshots kept in the time series.
    std::size_t series_ring = 256;
    /// PC-profiler sample stride armed alongside the ring (0 leaves the
    /// profiler untouched).
    u64 profile_interval = 10'000;
  };

  struct Window {
    u64 begin_icount = 0;
    u64 end_icount = 0;
    Cycles begin_cycles = 0;
    Cycles end_cycles = 0;
    std::size_t checkpoints = 0;
    /// Trace events recorded inside the window (all still in the ring).
    std::size_t trace_events = 0;
  };

  struct Stats {
    u64 checkpoints = 0;
    u64 evictions = 0;
    u64 series_points = 0;
    u64 replays = 0;
    u64 verifies = 0;
    u64 verify_failures = 0;
  };

  FlightLoop(Lvmm& mon, Config cfg)
      : mon_(mon), cfg_(cfg), history_(mon), series_(cfg.series_ring) {}
  explicit FlightLoop(Lvmm& mon) : FlightLoop(mon, Config()) {}

  /// Installs the periodic capture hook and (when configured) arms the PC
  /// profiler. The monitor's tracer should already be attached — the
  /// window's trace tail is whatever the tracer records.
  void arm();
  void disarm() { history_.disarm(); }
  bool armed() const { return history_.armed(); }

  /// Health quarantine: a frozen loop stops capturing (and evicting), so
  /// the window around the incident is preserved exactly as it was.
  void freeze() { frozen_ = true; }
  void unfreeze() { frozen_ = false; }
  bool frozen() const { return frozen_; }

  /// Snapshots the registry into the series at each capture boundary.
  void set_metrics(const MetricsRegistry* reg) { metrics_ = reg; }

  const Config& config() const { return cfg_; }
  const Stats& stats() const { return stats_; }
  Window window() const;
  /// Instructions the loop can currently replay: live position minus the
  /// oldest checkpoint.
  u64 replayable_instructions() const;
  const SeriesRing& series() const { return series_; }

  /// Proves the window: restores the oldest ring checkpoint, replays
  /// forward to the position held at call time (UART/NIC host sinks muted
  /// so replayed output is not delivered twice), and compares the replayed
  /// trace tail element-wise against the recorded one (the surviving tail
  /// when the window outgrew the tracer ring; the replayed event count
  /// must still match the full window exactly). On success the
  /// machine is back at the call-time position, bit-identical by
  /// determinism. Call between run slices on a debugger-quiet machine
  /// (replay cannot reproduce interactive stub traffic).
  bool verify_window(std::string* error = nullptr);

  /// Registers vmm.flight.* counters. Host-side observation state, so
  /// nothing here is replay-exact.
  void register_metrics(MetricsRegistry& reg);

 private:
  hw::Machine& machine() const { return mon_.machine(); }
  u64 icount() const { return machine().cpu().stats().instructions; }
  void on_boundary(u64 ic);
  void evict();

  Lvmm& mon_;
  Config cfg_;
  History history_;
  /// Tracer position (ExitTracer::recorded()) at each ring checkpoint,
  /// aligned with history_.ring().
  std::deque<u64> trace_cursors_;
  SeriesRing series_;
  const MetricsRegistry* metrics_ = nullptr;
  Stats stats_;
  bool frozen_ = false;
};

}  // namespace vdbg::vmm
