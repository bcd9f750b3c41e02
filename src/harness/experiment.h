// Experiment runner: measures CPU load and achieved goodput at an offered
// rate on a platform — the methodology of the paper's Section 3.
#pragma once

#include <optional>
#include <vector>

#include "fleet/machine_unit.h"
#include "guest/minitactix.h"

namespace vdbg::harness {

struct Measurement {
  fleet::UnitKind platform{};
  double offered_mbps = 0.0;
  double achieved_mbps = 0.0;  // sink goodput over the measurement window
  double cpu_load = 0.0;       // busy fraction over the window
  u64 segments_sent = 0;
  u64 underruns = 0;
  u64 ring_full = 0;
  u64 vm_exits = 0;       // 0 on native
  u64 injections = 0;     // 0 on native
  u64 checksum_errors = 0;
  u64 sequence_gaps = 0;
  bool guest_healthy = true;  // no panic, booted to magic
};

struct SweepOptions {
  /// Warmup must cover guest boot, the first 2 MB disk prefetches (~13 ms)
  /// and the paced token backlog draining, or measured goodput overshoots.
  double warmup_seconds = 0.15;
  double measure_seconds = 0.05;
  guest::RunConfig base_run{};  // rate is overridden per point
  fleet::UnitOptions platform{};
};

/// Boots a fresh platform instance and measures one operating point.
Measurement run_point(fleet::UnitKind kind, double offered_mbps,
                      const SweepOptions& opt);

/// One row per offered rate.
std::vector<Measurement> sweep(fleet::UnitKind kind,
                               const std::vector<double>& offered_mbps,
                               const SweepOptions& opt);

/// Maximum sustainable goodput: offer far more than the platform can carry
/// and report what actually gets through (CPU-saturated throughput).
Measurement saturation(fleet::UnitKind kind, const SweepOptions& opt,
                       double offered_mbps = 2000.0);

}  // namespace vdbg::harness
