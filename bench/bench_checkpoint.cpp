// Checkpoint-overhead ablation: what does periodic whole-machine
// checkpointing cost the guest, as a function of the interval?
//
// The TimeTravel controller charges every checkpoint to the monitor
// (costs.checkpoint_base + checkpoint_per_page x resident pages), so a
// checkpointed run retires fewer guest instructions in the same simulated
// span. guest_instr_retained_pct is that ratio against an uncheckpointed
// baseline — the CI regression gate watches it alongside the trap-cost
// counters. Also measures the reverse-stepi round trip (restore + replay),
// the operation an interactive reverse-debugging session waits on.
#include <benchmark/benchmark.h>

#include <optional>

#include "common/units.h"
#include "fleet/machine_unit.h"
#include "guest/minitactix.h"
#include "vmm/time_travel.h"

namespace {

using namespace vdbg;

struct RunResult {
  u64 instructions = 0;
  u64 checkpoints = 0;
  u64 stored_bytes = 0;  // marginal bytes actually kept (delta-aware)
  double mean_snapshot_kb = 0.0;
};

struct RunOpts {
  u64 interval = 0;
  bool cow_delta = true;
};

RunResult run_with_interval(RunOpts opts) {
  fleet::MachineUnit p(fleet::UnitKind::kLvmm);
  p.prepare(guest::RunConfig::for_rate_mbps(40.0));
  std::optional<vmm::TimeTravel> tt;
  if (opts.interval != 0) {
    vmm::TimeTravel::Config cfg;
    cfg.interval = opts.interval;
    cfg.ring = 4;
    cfg.cow_delta = opts.cow_delta;
    tt.emplace(*p.monitor(), cfg);
    tt->enable();
  }
  p.machine().run_for(seconds_to_cycles(0.1));

  RunResult r;
  r.instructions = p.machine().cpu().stats().instructions;
  if (tt) {
    r.checkpoints = tt->stats().checkpoints;
    r.stored_bytes = tt->stats().checkpoint_bytes;
    u64 bytes = 0;
    for (const auto& c : tt->checkpoints()) bytes += c.bytes.size();
    if (!tt->checkpoints().empty()) {
      r.mean_snapshot_kb =
          double(bytes) / double(tt->checkpoints().size()) / 1024.0;
    }
  }
  return r;
}

RunResult run_with_interval(u64 interval) {
  return run_with_interval(RunOpts{interval, /*cow_delta=*/true});
}

void BM_CheckpointOverhead(benchmark::State& state) {
  const u64 interval = static_cast<u64>(state.range(0));
  for (auto _ : state) {
    const RunResult base = run_with_interval(0);
    const RunResult run = run_with_interval(interval);
    state.counters["checkpoints"] = double(run.checkpoints);
    state.counters["mean_snapshot_kb"] = run.mean_snapshot_kb;
    state.counters["guest_instr_retained_pct"] =
        base.instructions
            ? 100.0 * double(run.instructions) / double(base.instructions)
            : 0.0;
  }
}
BENCHMARK(BM_CheckpointOverhead)
    ->Arg(10'000)
    ->Arg(50'000)
    ->Arg(200'000)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

// COW delta ablation: identical workload, identical checkpoint cadence,
// with delta encoding on vs off. The gated counter is marginal bytes kept
// per checkpoint — the CI baseline requires the delta mode itself to stay
// cheap (direction: lower) and the relative drop against full-stream
// snapshots to stay >= 40% (cow_bytes_drop_pct, direction: higher).
void BM_CheckpointDelta(benchmark::State& state) {
  const u64 interval = static_cast<u64>(state.range(0));
  for (auto _ : state) {
    const RunResult full =
        run_with_interval(RunOpts{interval, /*cow_delta=*/false});
    const RunResult delta =
        run_with_interval(RunOpts{interval, /*cow_delta=*/true});
    const double full_per =
        full.checkpoints ? double(full.stored_bytes) / double(full.checkpoints)
                         : 0.0;
    const double delta_per =
        delta.checkpoints
            ? double(delta.stored_bytes) / double(delta.checkpoints)
            : 0.0;
    state.counters["checkpoints"] = double(delta.checkpoints);
    state.counters["full_bytes_per_ckpt"] = full_per;
    state.counters["checkpoint_bytes_per_ckpt"] = delta_per;
    state.counters["cow_bytes_drop_pct"] =
        full_per > 0.0 ? 100.0 * (1.0 - delta_per / full_per) : 0.0;
  }
}
BENCHMARK(BM_CheckpointDelta)
    ->Arg(50'000)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

void BM_ReverseStepi(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    fleet::MachineUnit p(fleet::UnitKind::kLvmm);
    p.prepare(guest::RunConfig::for_rate_mbps(40.0));
    vmm::TimeTravel::Config cfg;
    cfg.interval = 20'000;
    vmm::TimeTravel tt(*p.monitor(), cfg);
    tt.enable();
    p.machine().run_for(seconds_to_cycles(0.05));
    p.monitor()->freeze_guest(vmm::DebugDelegate::StopReason::kStep);
    state.ResumeTiming();

    const auto r = tt.reverse_stepi();

    state.PauseTiming();
    if (r.outcome == vmm::TimeTravel::ReverseOutcome::kStopped) {
      state.counters["replayed_instructions"] =
          double(tt.stats().replayed_instructions);
    }
    state.ResumeTiming();
  }
}
BENCHMARK(BM_ReverseStepi)->Iterations(3)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
