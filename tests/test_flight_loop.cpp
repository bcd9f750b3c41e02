// Flight-loop tests: the continuous-capture ring must be able to prove, at
// any moment, that restore + deterministic re-execution reproduces the
// recorded trace tail bit for bit (under every execution tier), eviction
// must keep the checkpoint and trace windows aligned, the PC sampling
// profiler must be byte-identical across runs and across time-travel
// replay, and the metrics time series must answer qVdbg.MetricsHistory
// over the RSP wire.
#include <gtest/gtest.h>

#include "common/units.h"
#include "debug/remote_debugger.h"
#include "fleet/machine_unit.h"
#include "guest/minitactix.h"
#include "vmm/flight_loop.h"
#include "vmm/time_travel.h"
#include "vmm/trace.h"

namespace vdbg::test {
namespace {

using debug::RemoteDebugger;
using guest::RunConfig;
using fleet::MachineUnit;
using fleet::UnitKind;
using vmm::ExitTracer;
using vmm::FlightLoop;
using MStop = hw::Machine::StopReason;

std::unique_ptr<MachineUnit> make_lvmm() {
  auto p = std::make_unique<MachineUnit>(UnitKind::kLvmm);
  p->prepare(RunConfig::for_rate_mbps(40.0));
  return p;
}

// ------------------------------------------------------ window replay ----

TEST(FlightLoopWindow, ReplayReproducesRecordedTraceBitForBit) {
  auto p = make_lvmm();
  ExitTracer tracer(4096);
  tracer.set_enabled(true);
  p->monitor()->set_tracer(&tracer);

  FlightLoop::Config cfg;
  cfg.interval = 20'000;
  cfg.ring = 8;
  FlightLoop fl(*p->monitor(), cfg);
  fl.set_metrics(&p->metrics());
  fl.arm();

  ASSERT_EQ(p->machine().run_for(seconds_to_cycles(0.03)), MStop::kBudget);
  ASSERT_GT(fl.stats().checkpoints, 0u);

  const auto w = fl.window();
  EXPECT_GT(w.end_icount, w.begin_icount);
  EXPECT_GT(w.trace_events, 0u);
  EXPECT_EQ(fl.replayable_instructions(), w.end_icount - w.begin_icount);

  const u64 origin = p->machine().cpu().stats().instructions;
  std::string why;
  ASSERT_TRUE(fl.verify_window(&why)) << why;
  EXPECT_EQ(fl.stats().verify_failures, 0u);
  // verify_window leaves the machine back at the call-time position.
  EXPECT_EQ(p->machine().cpu().stats().instructions, origin);

  // The loop keeps capturing cleanly after a verify pass, and a second
  // verify over the refreshed window also holds.
  ASSERT_EQ(p->machine().run_for(seconds_to_cycles(0.01)), MStop::kBudget);
  ASSERT_TRUE(fl.verify_window(&why)) << why;
  EXPECT_EQ(fl.stats().verifies, 2u);
}

// The window proof must hold under every execution tier: the tiers retire
// bit-identical state, so the replayed trace tail cannot depend on which
// one ran.
TEST(FlightLoopWindow, ReplayVerifiesUnderEveryTier) {
  for (const bool block_cache : {false, true}) {
    auto p = make_lvmm();
    p->machine().cpu().set_block_cache_enabled(block_cache);
    ExitTracer tracer(4096);
    tracer.set_enabled(true);
    p->monitor()->set_tracer(&tracer);

    FlightLoop::Config cfg;
    cfg.interval = 25'000;
    FlightLoop fl(*p->monitor(), cfg);
    fl.arm();

    ASSERT_EQ(p->machine().run_for(seconds_to_cycles(0.02)), MStop::kBudget);
    std::string why;
    EXPECT_TRUE(fl.verify_window(&why))
        << "block_cache=" << block_cache << ": " << why;
  }
}

TEST(FlightLoopWindow, EvictionKeepsCheckpointAndTraceWindowsAligned) {
  auto p = make_lvmm();
  // A deliberately tiny trace ring: the tracer overwrites its window long
  // before the checkpoint ring fills, forcing misalignment evictions.
  ExitTracer tracer(64);
  tracer.set_enabled(true);
  p->monitor()->set_tracer(&tracer);

  FlightLoop::Config cfg;
  cfg.interval = 10'000;
  cfg.ring = 4;
  FlightLoop fl(*p->monitor(), cfg);
  fl.arm();

  ASSERT_EQ(p->machine().run_for(seconds_to_cycles(0.05)), MStop::kBudget);
  EXPECT_GT(fl.stats().evictions, 0u);

  const auto w = fl.window();
  EXPECT_LE(w.checkpoints, cfg.ring);
  // The oldest surviving checkpoint still has its full trace tail: the
  // window never claims more events than the tracer can actually hold.
  EXPECT_LE(w.trace_events, tracer.capacity());
  std::string why;
  EXPECT_TRUE(fl.verify_window(&why)) << why;
}

TEST(FlightLoopWindow, FreezePreservesTheWindow) {
  auto p = make_lvmm();
  ExitTracer tracer(4096);
  tracer.set_enabled(true);
  p->monitor()->set_tracer(&tracer);

  FlightLoop fl(*p->monitor(), FlightLoop::Config{.interval = 20'000});
  fl.arm();
  ASSERT_EQ(p->machine().run_for(seconds_to_cycles(0.02)), MStop::kBudget);
  const u64 captured = fl.stats().checkpoints;
  ASSERT_GT(captured, 0u);
  const u64 window_begin = fl.window().begin_icount;

  fl.freeze();
  ASSERT_EQ(p->machine().run_for(seconds_to_cycles(0.02)), MStop::kBudget);
  // No new captures, no evictions: the incident window is preserved.
  EXPECT_EQ(fl.stats().checkpoints, captured);
  EXPECT_EQ(fl.window().begin_icount, window_begin);

  fl.unfreeze();
  ASSERT_EQ(p->machine().run_for(seconds_to_cycles(0.02)), MStop::kBudget);
  EXPECT_GT(fl.stats().checkpoints, captured);
}

// A flight loop and a time-travel controller sharing a capture boundary:
// the loop's checkpoint must contain that boundary's checkpoint charge
// whichever was armed first, or its replay misses the charge and the
// window proof fails.
void verify_with_time_travel(bool flight_loop_first) {
  auto p = make_lvmm();
  ExitTracer tracer(4096);
  tracer.set_enabled(true);
  p->monitor()->set_tracer(&tracer);

  FlightLoop fl(*p->monitor(), FlightLoop::Config{.interval = 50'000});
  vmm::TimeTravel tt(*p->monitor());
  ASSERT_EQ(tt.config().interval, fl.config().interval);
  if (flight_loop_first) {
    fl.arm();
    tt.enable();
  } else {
    tt.enable();
    fl.arm();
  }

  auto& m = p->machine();
  ASSERT_EQ(m.run_for(seconds_to_cycles(0.03)), MStop::kBudget);
  ASSERT_GT(tt.checkpoint_count(), 0u);
  const u64 next = m.cpu().stats().instructions + 1;
  ASSERT_EQ(m.run_to_instruction(next, seconds_to_cycles(0.01)),
            MStop::kInstrLimit);

  std::string why;
  EXPECT_TRUE(fl.verify_window(&why)) << why;
  EXPECT_EQ(m.cpu().stats().instructions, next);
}

TEST(FlightLoopWindow, VerifiesWithTimeTravelArmedAfter) {
  verify_with_time_travel(/*flight_loop_first=*/true);
}

TEST(FlightLoopWindow, VerifiesWithTimeTravelArmedBefore) {
  verify_with_time_travel(/*flight_loop_first=*/false);
}

// ---------------------------------------------------------- profiler ----

// The profiler is driven by the event clock (retired instructions), never
// host time: two identical runs must produce byte-identical histograms.
TEST(FlightLoopProfiler, ByteIdenticalAcrossRuns) {
  std::string folded[2];
  for (int run = 0; run < 2; ++run) {
    auto p = make_lvmm();
    auto& prof = p->machine().cpu().profiler();
    prof.configure(5'000, 0);
    ASSERT_EQ(p->machine().run_for(seconds_to_cycles(0.03)), MStop::kBudget);
    ASSERT_GT(prof.samples(), 0u);
    folded[run] = prof.folded();
    ASSERT_FALSE(folded[run].empty());
  }
  EXPECT_EQ(folded[0], folded[1]);
}

// Replay-exactness: verify_window restores the oldest checkpoint (profiler
// state included) and re-executes to the origin; the resampled histogram
// must land byte-identical to the recorded one.
TEST(FlightLoopProfiler, ByteIdenticalAcrossTimeTravelReplay) {
  auto p = make_lvmm();
  ExitTracer tracer(4096);
  tracer.set_enabled(true);
  p->monitor()->set_tracer(&tracer);

  FlightLoop::Config cfg;
  cfg.interval = 20'000;
  cfg.profile_interval = 5'000;
  FlightLoop fl(*p->monitor(), cfg);
  fl.arm();

  ASSERT_EQ(p->machine().run_for(seconds_to_cycles(0.03)), MStop::kBudget);
  auto& prof = p->machine().cpu().profiler();
  ASSERT_GT(prof.samples(), 0u);
  const std::string before = prof.folded();
  const u64 samples_before = prof.samples();

  std::string why;
  ASSERT_TRUE(fl.verify_window(&why)) << why;
  EXPECT_EQ(prof.folded(), before);
  EXPECT_EQ(prof.samples(), samples_before);
}

// The profiler's sample counter rides the CPU snapshot, so it is
// replay-exact and must advertise itself as such to the lockstep checks.
TEST(FlightLoopProfiler, SamplesCounterIsReplayExact) {
  auto p = make_lvmm();
  bool found = false;
  for (const auto& s : p->metrics().snapshot()) {
    if (s.name != "cpu.profile.samples") continue;
    found = true;
    EXPECT_TRUE(s.replay_exact);
  }
  EXPECT_TRUE(found);
}

// ------------------------------------------- series + RSP plumbing ----

TEST(FlightLoopSeries, HistoryOverRspWire) {
  fleet::MachineUnit unit(fleet::UnitKind::kLvmm, fleet::UnitOptions{}, 0);
  unit.prepare(RunConfig::for_rate_mbps(40.0));
  unit.attach_stub();
  FlightLoop::Config cfg;
  cfg.interval = 20'000;
  cfg.profile_interval = 5'000;
  ASSERT_NE(unit.arm_flight_loop(cfg), nullptr);

  ASSERT_EQ(unit.machine().run_for(seconds_to_cycles(0.03)), MStop::kBudget);

  RemoteDebugger dbg(unit.machine());
  ASSERT_TRUE(dbg.connect());

  // Metrics time series: icounts strictly increase, instruction counters
  // are monotone.
  const auto hist = dbg.metrics_history("cpu.core.instructions");
  ASSERT_TRUE(hist.has_value());
  ASSERT_GT(hist->size(), 1u);
  for (std::size_t i = 1; i < hist->size(); ++i) {
    EXPECT_GT((*hist)[i].icount, (*hist)[i - 1].icount);
    EXPECT_GE((*hist)[i].value, (*hist)[i - 1].value);
  }

  // Hot-PC histogram over the wire.
  const auto prof = dbg.profile(5);
  ASSERT_TRUE(prof.has_value());
  ASSERT_FALSE(prof->empty());
  u64 prev = ~u64{0};
  for (const auto& e : *prof) {
    EXPECT_GT(e.count, 0u);
    EXPECT_LE(e.count, prev);  // hottest first
    prev = e.count;
  }

  // Replayable window bounds.
  const auto w = dbg.flight_window();
  ASSERT_TRUE(w.has_value());
  EXPECT_GT(w->second, w->first);

  // Run-control of the profiler over the wire.
  EXPECT_TRUE(dbg.profile_stop());
  EXPECT_TRUE(dbg.profile_start(2'000));

  // The series health counters live under fleet.series.*.
  const auto ms = dbg.metrics("fleet.series");
  ASSERT_TRUE(ms.has_value());
  ASSERT_FALSE(ms->empty());
}

TEST(FlightLoopSeries, RingIsBounded) {
  SeriesRing ring(4);
  for (u64 i = 0; i < 10; ++i) {
    SeriesRing::Point pt;
    pt.icount = i;
    ring.push(std::move(pt));
  }
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.stats().pushed, 10u);
  EXPECT_EQ(ring.stats().evicted, 6u);
  EXPECT_EQ(ring.at(0).icount, 6u);  // oldest survivor
  EXPECT_EQ(ring.at(3).icount, 9u);
}

}  // namespace
}  // namespace vdbg::test
