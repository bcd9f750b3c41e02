// Tests for the two debugging extensions built on the monitor's mechanisms:
// shadow-paging write watchpoints and the VM-exit tracer — both end-to-end
// over the RSP wire and at the unit level.
#include <gtest/gtest.h>

#include "common/units.h"
#include "debug/remote_debugger.h"
#include "fleet/machine_unit.h"
#include "guest/layout.h"
#include "guest/minitactix.h"
#include "vmm/stub.h"
#include "vmm/trace.h"

namespace vdbg::test {
namespace {

using debug::RemoteDebugger;
using guest::Mailbox;
using guest::RunConfig;
using fleet::MachineUnit;
using fleet::UnitKind;
using StopKind = RemoteDebugger::StopKind;

struct Rig {
  explicit Rig(RunConfig rc = RunConfig::for_rate_mbps(40.0)) {
    platform = std::make_unique<MachineUnit>(UnitKind::kLvmm);
    platform->prepare(rc);
    stub = std::make_unique<vmm::DebugStub>(*platform->monitor(),
                                            platform->machine().uart());
    stub->attach();
    platform->monitor()->set_tracer(&tracer);
    dbg = std::make_unique<RemoteDebugger>(platform->machine());
  }

  std::unique_ptr<MachineUnit> platform;
  std::unique_ptr<vmm::DebugStub> stub;
  std::unique_ptr<RemoteDebugger> dbg;
  vmm::ExitTracer tracer;
};

// ---------------------------------------------------------------- tracer --
TEST(ExitTracer, RingSemantics) {
  vmm::ExitTracer t(4);
  t.set_enabled(true);
  for (u32 i = 0; i < 6; ++i) {
    vmm::TraceEvent e;
    e.timestamp = i;
    e.kind = vmm::TraceKind::kInjection;
    t.record(e);
  }
  EXPECT_EQ(t.recorded(), 6u);
  EXPECT_EQ(t.overwritten(), 2u);
  const auto snap = t.snapshot();
  ASSERT_EQ(snap.size(), 4u);
  EXPECT_EQ(snap.front().timestamp, 2u);  // oldest surviving
  EXPECT_EQ(snap.back().timestamp, 5u);
  const auto last2 = t.tail(2);
  ASSERT_EQ(last2.size(), 2u);
  EXPECT_EQ(last2[0].timestamp, 4u);
  EXPECT_EQ(last2[1].timestamp, 5u);
  t.clear();
  EXPECT_TRUE(t.snapshot().empty());
}

TEST(ExitTracer, DisabledRecordsNothing) {
  vmm::ExitTracer t(8);
  t.record({});
  EXPECT_EQ(t.recorded(), 0u);
}

TEST(ExitTracer, FormatNamesKinds) {
  vmm::TraceEvent e;
  e.timestamp = 42;
  e.kind = vmm::TraceKind::kShadowSync;
  e.pc = 0x1234;
  const auto s = vmm::ExitTracer::format(e);
  EXPECT_NE(s.find("shadow"), std::string::npos);
  EXPECT_NE(s.find("pc=00001234"), std::string::npos);
}

TEST(TraceLive, MonitorRecordsStreamActivity) {
  Rig rig;
  rig.tracer.set_enabled(true);
  rig.platform->machine().run_for(seconds_to_cycles(0.03));
  const auto events = rig.tracer.snapshot();
  ASSERT_FALSE(events.empty());
  bool saw_priv = false, saw_inj = false, saw_irq = false, saw_int = false;
  for (const auto& e : events) {
    saw_priv |= e.kind == vmm::TraceKind::kPrivileged;
    saw_inj |= e.kind == vmm::TraceKind::kInjection;
    saw_irq |= e.kind == vmm::TraceKind::kInterrupt;
    saw_int |= e.kind == vmm::TraceKind::kSoftInt;
  }
  EXPECT_TRUE(saw_priv);
  EXPECT_TRUE(saw_inj);
  EXPECT_TRUE(saw_irq);
  EXPECT_TRUE(saw_int);
  // Timestamps are monotone non-decreasing.
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1].timestamp, events[i].timestamp);
  }
}

TEST(TraceLive, FetchOverTheWire) {
  Rig rig;
  ASSERT_TRUE(rig.dbg->connect());
  ASSERT_TRUE(rig.dbg->trace_enable(true));
  rig.platform->machine().run_for(seconds_to_cycles(0.02));
  const auto lines = rig.dbg->fetch_trace(8);
  ASSERT_FALSE(lines.empty());
  ASSERT_LE(lines.size(), 8u);
  for (const auto& l : lines) {
    EXPECT_NE(l.find("pc="), std::string::npos) << l;
  }
  ASSERT_TRUE(rig.dbg->trace_enable(false));
  const u64 count = rig.tracer.recorded();
  rig.platform->machine().run_for(seconds_to_cycles(0.01));
  EXPECT_EQ(rig.tracer.recorded(), count);  // off means off
}

// ------------------------------------------------------------ watchpoints --
TEST(Watchpoints, MonitorApiHitsOnWatchedWord) {
  Rig rig;
  rig.platform->machine().run_for(seconds_to_cycles(0.03));  // boot + stream
  auto* mon = rig.platform->monitor();
  ASSERT_TRUE(mon->add_watchpoint(
      guest::kMailboxBase + Mailbox::kSegmentsSent, 4));
  EXPECT_EQ(mon->watchpoint_count(), 1u);

  // The next segment send writes the counter -> the guest freezes.
  rig.platform->machine().run_for(seconds_to_cycles(0.05));
  ASSERT_TRUE(mon->guest_frozen());
  const auto& hit = mon->last_watch_hit();
  EXPECT_EQ(hit.va, guest::kMailboxBase + Mailbox::kSegmentsSent);
  EXPECT_EQ(hit.size, 4u);
  // Post-write semantics: the stored value is the new counter value.
  const auto mb = rig.platform->mailbox();
  EXPECT_EQ(hit.value, mb.segments_sent);
  EXPECT_GT(mb.segments_sent, 0u);
}

TEST(Watchpoints, UnwatchedBytesOnWatchedPageRunSilently) {
  // Watch a never-written scratch word that shares the mailbox page with
  // constantly-written counters: the stream must keep running (silent
  // store emulation), with zero stops.
  Rig rig;
  rig.platform->machine().run_for(seconds_to_cycles(0.03));
  auto* mon = rig.platform->monitor();
  ASSERT_TRUE(mon->add_watchpoint(guest::kMailboxBase + 0xff0, 4));
  const auto before = rig.platform->mailbox();
  rig.platform->machine().run_for(seconds_to_cycles(0.03));
  EXPECT_FALSE(mon->guest_frozen());
  const auto after = rig.platform->mailbox();
  EXPECT_GT(after.segments_sent, before.segments_sent);
  EXPECT_GT(after.ticks, before.ticks);
}

TEST(Watchpoints, RemoveRestoresFullSpeedMappings) {
  Rig rig;
  rig.platform->machine().run_for(seconds_to_cycles(0.03));
  auto* mon = rig.platform->monitor();
  ASSERT_TRUE(mon->add_watchpoint(guest::kMailboxBase + 0xff0, 4));
  ASSERT_TRUE(mon->remove_watchpoint(guest::kMailboxBase + 0xff0, 4));
  EXPECT_EQ(mon->watchpoint_count(), 0u);
  EXPECT_FALSE(mon->remove_watchpoint(guest::kMailboxBase + 0xff0, 4));
  const auto pf_before = mon->exit_stats().pt_writes;
  rig.platform->machine().run_for(seconds_to_cycles(0.02));
  // With no watch (and no PT writes in steady state) nothing is emulated.
  EXPECT_EQ(mon->exit_stats().pt_writes, pf_before);
  EXPECT_FALSE(mon->guest_frozen());
}

TEST(Watchpoints, EndToEndOverRsp) {
  Rig rig;
  ASSERT_TRUE(rig.dbg->connect());
  rig.platform->machine().run_for(seconds_to_cycles(0.03));

  const u32 addr = guest::kMailboxBase + Mailbox::kDiskReads;
  ASSERT_TRUE(rig.dbg->set_watchpoint(addr, 4));
  // Disk refills happen every chunk (2 MiB at 40 Mbps ~ every 400 ms)...
  // too slow; watch the tick counter instead for a prompt hit.
  ASSERT_TRUE(rig.dbg->clear_watchpoint(addr, 4));
  const u32 tick_addr = guest::kMailboxBase + Mailbox::kTicks;
  ASSERT_TRUE(rig.dbg->set_watchpoint(tick_addr, 4));

  const auto stop = rig.dbg->continue_and_wait(seconds_to_cycles(0.01));
  ASSERT_EQ(stop, StopKind::kBreak);
  EXPECT_NE(rig.dbg->last_stop().find("watch:"), std::string::npos);
  EXPECT_EQ(rig.dbg->watch_address().value_or(0), tick_addr);

  // Clean up and resume: the stream continues.
  ASSERT_TRUE(rig.dbg->clear_watchpoint(tick_addr, 4));
  rig.dbg->continue_and_wait(seconds_to_cycles(0.001));
  const auto before = rig.platform->mailbox().segments_sent;
  rig.platform->machine().run_for(seconds_to_cycles(0.03));
  EXPECT_GT(rig.platform->mailbox().segments_sent, before);
}

TEST(Watchpoints, RequiresGuestPaging) {
  // Before boot (paging off) the watchpoint API refuses.
  Rig rig;
  EXPECT_FALSE(rig.platform->monitor()->add_watchpoint(0x1000, 4));
}

}  // namespace
}  // namespace vdbg::test
