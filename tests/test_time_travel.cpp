// Time-travel debugging tests: snapshot integrity (byte-identity,
// corruption rejection), the lockstep differential (restore + replay must
// reproduce straight-line execution bit for bit), and reverse execution both
// at the controller level and end-to-end over the RSP wire.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/snapshot.h"
#include "common/units.h"
#include "debug/remote_debugger.h"
#include "fleet/machine_unit.h"
#include "guest/layout.h"
#include "guest/minitactix.h"
#include "vmm/stub.h"
#include "vmm/time_travel.h"
#include "vmm/trace.h"

namespace vdbg::test {
namespace {

using debug::RemoteDebugger;
using guest::Mailbox;
using guest::RunConfig;
using fleet::MachineUnit;
using fleet::UnitKind;
using vmm::TimeTravel;
using MStop = hw::Machine::StopReason;
using Outcome = TimeTravel::ReverseOutcome;
using StopKind = RemoteDebugger::StopKind;

std::unique_ptr<MachineUnit> make_lvmm() {
  auto p = std::make_unique<MachineUnit>(UnitKind::kLvmm);
  p->prepare(RunConfig::for_rate_mbps(40.0));
  return p;
}

// ------------------------------------------------------------- snapshots --

TEST(TimeTravelSnapshot, SaveRestoreSaveIsByteIdentical) {
  auto p = make_lvmm();
  ASSERT_EQ(p->machine().run_for(seconds_to_cycles(0.02)), MStop::kBudget);

  TimeTravel tt(*p->monitor());
  const auto a = tt.save_state();
  ASSERT_FALSE(a.empty());
  ASSERT_TRUE(tt.load_state(a));
  EXPECT_EQ(tt.save_state(), a);
}

// Every device section individually: save -> restore -> save must reproduce
// the stream byte for byte, with live mid-run state in the devices.
TEST(TimeTravelSnapshot, PerDeviceSectionsRoundTrip) {
  auto p = make_lvmm();
  ASSERT_EQ(p->machine().run_for(seconds_to_cycles(0.02)), MStop::kBudget);
  auto& m = p->machine();

  struct Dev {
    const char* name;
    SnapTag tag;
    std::function<void(SnapshotWriter&)> save;
    std::function<void(SnapshotReader&)> restore;
  };
  const Dev devs[] = {
      {"cpu", SnapTag::kCpu, [&](SnapshotWriter& w) { m.cpu().save(w); },
       [&](SnapshotReader& r) { m.cpu().restore(r); }},
      {"mmu", SnapTag::kMmu, [&](SnapshotWriter& w) { m.cpu().mmu().save(w); },
       [&](SnapshotReader& r) { m.cpu().mmu().restore(r); }},
      {"physmem", SnapTag::kPhysMem, [&](SnapshotWriter& w) { m.mem().save(w); },
       [&](SnapshotReader& r) { m.mem().restore(r); }},
      {"pic", SnapTag::kPic, [&](SnapshotWriter& w) { m.pic().save(w); },
       [&](SnapshotReader& r) { m.pic().restore(r); }},
      {"pit", SnapTag::kPit, [&](SnapshotWriter& w) { m.pit().save(w); },
       [&](SnapshotReader& r) { m.pit().restore(r); }},
      {"uart", SnapTag::kUart, [&](SnapshotWriter& w) { m.uart().save(w); },
       [&](SnapshotReader& r) { m.uart().restore(r); }},
      {"nic", SnapTag::kNic, [&](SnapshotWriter& w) { m.nic().save(w); },
       [&](SnapshotReader& r) { m.nic().restore(r); }},
      {"disk", SnapTag::kScsi, [&](SnapshotWriter& w) { m.disk(0).save(w); },
       [&](SnapshotReader& r) { m.disk(0).restore(r); }},
  };

  for (const Dev& d : devs) {
    SnapshotWriter w1;
    w1.begin_section(d.tag);
    d.save(w1);
    w1.end_section();
    const auto a = w1.finish();

    SnapshotReader r(a);
    ASSERT_TRUE(r.ok()) << d.name;
    ASSERT_TRUE(r.open_section(d.tag)) << d.name;
    d.restore(r);
    ASSERT_TRUE(r.ok()) << d.name;

    SnapshotWriter w2;
    w2.begin_section(d.tag);
    d.save(w2);
    w2.end_section();
    EXPECT_EQ(w2.finish(), a) << d.name << " state not byte-identical";
  }
}

TEST(TimeTravelSnapshot, RejectsCorruptTruncatedAndEmptyStreams) {
  auto p = make_lvmm();
  ASSERT_EQ(p->machine().run_for(seconds_to_cycles(0.01)), MStop::kBudget);

  TimeTravel tt(*p->monitor());
  const auto good = tt.save_state();
  ASSERT_GT(good.size(), 64u);

  EXPECT_FALSE(tt.load_state({}));

  auto truncated = good;
  truncated.resize(truncated.size() - 7);
  EXPECT_FALSE(tt.load_state(truncated));

  auto corrupt = good;
  corrupt[corrupt.size() / 2] ^= 0x5a;  // payload bit-flip: CRC must catch it
  EXPECT_FALSE(tt.load_state(corrupt));

  auto bad_magic = good;
  bad_magic[0] ^= 0xff;
  EXPECT_FALSE(tt.load_state(bad_magic));

  // A rejected stream must leave the machine untouched.
  EXPECT_EQ(tt.save_state(), good);
}

// ------------------------------------------ the replay correctness oracle --

// Restore-then-replay must be bit-identical to uninterrupted execution, at
// every compared boundary. This is the property everything else rests on.
TEST(TimeTravelReplay, LockstepDifferentialMatchesStraightLine) {
  auto p = make_lvmm();
  auto& m = p->machine();
  TimeTravel::Config cfg;
  cfg.interval = 10'000;
  TimeTravel tt(*p->monitor(), cfg);
  tt.enable();

  ASSERT_EQ(m.run_for(seconds_to_cycles(0.01)), MStop::kBudget);
  const u64 base = m.cpu().stats().instructions;
  const u64 points[] = {base + 30'000, base + 60'000, base + 90'000,
                        base + 123'456};

  std::vector<std::vector<u8>> straight;
  for (u64 pt : points) {
    ASSERT_EQ(m.run_to_instruction(pt, seconds_to_cycles(1.0)),
              MStop::kInstrLimit);
    straight.push_back(tt.save_state());
  }

  // Rewind to the first boundary and replay through the same schedule.
  ASSERT_TRUE(tt.load_state(straight[0]));
  ASSERT_EQ(m.cpu().stats().instructions, points[0]);
  for (std::size_t i = 1; i < straight.size(); ++i) {
    ASSERT_EQ(m.run_to_instruction(points[i], seconds_to_cycles(1.0)),
              MStop::kInstrLimit);
    EXPECT_EQ(tt.save_state(), straight[i])
        << "replay diverged from straight-line execution at boundary " << i;
  }
  EXPECT_GE(tt.stats().restores, 1u);
}

// The superblock cache is derived state: restoring a snapshot must drop it
// (its chain edges may reference pre-rollback code), replay must rebuild it
// on demand, and replaying the same window with the tier disabled must
// produce a byte-identical snapshot. The kill switch itself is a host
// tuning knob and must be invisible to the snapshot stream.
TEST(TimeTravelReplay, SuperblockCacheIsDerivedStateAcrossRestore) {
  auto p = make_lvmm();
  auto& m = p->machine();
  TimeTravel tt(*p->monitor());

  ASSERT_EQ(m.run_for(seconds_to_cycles(0.02)), MStop::kBudget);
  const auto& sbc = m.cpu().sbc_stats();
  ASSERT_GT(sbc.hits + sbc.chains, 0u)
      << "the boot workload never exercised the superblock tier";

  const auto snap = tt.save_state();
  ASSERT_FALSE(snap.empty());

  // Kill-switch flips must not change the snapshot stream.
  m.cpu().set_superblocks_enabled(false);
  EXPECT_EQ(tt.save_state(), snap);
  m.cpu().set_superblocks_enabled(true);

  // Restore drops every live superblock (counted as invalidations).
  const u64 inv_before = sbc.invalidations;
  ASSERT_TRUE(tt.load_state(snap));
  EXPECT_GT(sbc.invalidations, inv_before)
      << "restore did not drop the superblock cache";

  // Replay a fixed instruction window with superblocks on...
  const u64 entries_at_restore = sbc.hits + sbc.chains;
  const u64 target = m.cpu().stats().instructions + 50'000;
  ASSERT_EQ(m.run_to_instruction(target, seconds_to_cycles(1.0)),
            MStop::kInstrLimit);
  EXPECT_GT(sbc.hits + sbc.chains, entries_at_restore)
      << "the cache was not rebuilt on demand after restore";
  const auto on_snap = tt.save_state();

  // ...then the identical window from the identical start with the tier
  // off: the machine must land on a byte-identical snapshot.
  ASSERT_TRUE(tt.load_state(snap));
  m.cpu().set_superblocks_enabled(false);
  ASSERT_EQ(m.run_to_instruction(target, seconds_to_cycles(1.0)),
            MStop::kInstrLimit);
  EXPECT_EQ(tt.save_state(), on_snap)
      << "superblock replay diverged from the block-cache tier";
  m.cpu().set_superblocks_enabled(true);
}

// reverse-stepi is restore + replay, so its landing must not depend on
// which tier executes the replay window.
TEST(TimeTravelReplay, ReverseStepiLandsIdenticallyAcrossTiers) {
  auto p = make_lvmm();
  auto& m = p->machine();
  TimeTravel::Config cfg;
  cfg.interval = 5'000;
  TimeTravel tt(*p->monitor(), cfg);
  tt.enable();

  ASSERT_EQ(m.run_for(seconds_to_cycles(0.01)), MStop::kBudget);
  const u64 n = m.cpu().stats().instructions;
  ASSERT_GT(tt.checkpoint_count(), 0u);

  // Reverse-step with the superblock tier live (the default)...
  p->monitor()->freeze_guest(vmm::DebugDelegate::StopReason::kStep);
  ASSERT_EQ(tt.reverse_stepi().outcome, Outcome::kStopped);
  ASSERT_EQ(m.cpu().stats().instructions, n - 1);
  const auto landing_super = tt.save_state();

  // ...return to the boundary, then reverse again with replay pinned to
  // the block-cache tier: the landing must be byte-identical.
  p->monitor()->resume_guest();
  ASSERT_EQ(m.run_to_instruction(n, seconds_to_cycles(1.0)),
            MStop::kInstrLimit);
  m.cpu().set_superblocks_enabled(false);
  p->monitor()->freeze_guest(vmm::DebugDelegate::StopReason::kStep);
  ASSERT_EQ(tt.reverse_stepi().outcome, Outcome::kStopped);
  EXPECT_EQ(m.cpu().stats().instructions, n - 1);
  EXPECT_EQ(tt.save_state(), landing_super)
      << "reverse-stepi landed on different state across tiers";
  m.cpu().set_superblocks_enabled(true);
  p->monitor()->resume_guest();
}

// -------------------------------------------------- controller-level ops --

TEST(TimeTravelReplay, ReverseStepiLandsExactlyOneInstructionEarlier) {
  auto p = make_lvmm();
  auto& m = p->machine();
  TimeTravel::Config cfg;
  cfg.interval = 5'000;
  TimeTravel tt(*p->monitor(), cfg);
  tt.enable();

  ASSERT_EQ(m.run_for(seconds_to_cycles(0.01)), MStop::kBudget);
  const u64 n = m.cpu().stats().instructions;
  ASSERT_GT(tt.checkpoint_count(), 0u);

  p->monitor()->freeze_guest(vmm::DebugDelegate::StopReason::kStep);
  const auto r = tt.reverse_stepi();
  EXPECT_EQ(r.outcome, Outcome::kStopped);
  EXPECT_EQ(r.icount, n - 1);
  EXPECT_EQ(m.cpu().stats().instructions, n - 1);
  EXPECT_TRUE(p->monitor()->guest_frozen());
  EXPECT_GE(tt.stats().replay_passes, 1u);

  // Running forward again reaches the original boundary.
  p->monitor()->resume_guest();
  ASSERT_EQ(m.run_to_instruction(n, seconds_to_cycles(1.0)),
            MStop::kInstrLimit);
  EXPECT_EQ(m.cpu().stats().instructions, n);
}

TEST(TimeTravelReplay, ReverseContinueWithoutHitsLandsOnOldestCheckpoint) {
  auto p = make_lvmm();
  auto& m = p->machine();
  TimeTravel::Config cfg;
  cfg.interval = 5'000;
  cfg.ring = 4;
  TimeTravel tt(*p->monitor(), cfg);
  tt.enable();

  ASSERT_EQ(m.run_for(seconds_to_cycles(0.01)), MStop::kBudget);
  ASSERT_GT(tt.checkpoint_count(), 0u);
  const u64 oldest = tt.checkpoints().front().icount;

  p->monitor()->freeze_guest(vmm::DebugDelegate::StopReason::kStep);
  const auto r = tt.reverse_continue();
  EXPECT_EQ(r.outcome, Outcome::kAtCheckpoint);
  EXPECT_EQ(r.icount, oldest);
  EXPECT_EQ(m.cpu().stats().instructions, oldest);
  EXPECT_TRUE(p->monitor()->guest_frozen());
}

TEST(TimeTravelReplay, ReverseWithoutCheckpointsReportsNoHistory) {
  auto p = make_lvmm();
  auto& m = p->machine();
  TimeTravel tt(*p->monitor());  // never enabled: empty ring

  ASSERT_EQ(m.run_for(seconds_to_cycles(0.005)), MStop::kBudget);
  const u64 n = m.cpu().stats().instructions;
  p->monitor()->freeze_guest(vmm::DebugDelegate::StopReason::kStep);

  EXPECT_EQ(tt.reverse_stepi().outcome, Outcome::kNoHistory);
  EXPECT_EQ(tt.reverse_continue().outcome, Outcome::kNoHistory);
  // State untouched.
  EXPECT_EQ(m.cpu().stats().instructions, n);
  EXPECT_TRUE(p->monitor()->guest_frozen());
}

// ------------------------------------------------- end-to-end over RSP --

struct TtRig {
  TtRig() {
    platform = make_lvmm();
    stub = std::make_unique<vmm::DebugStub>(*platform->monitor(),
                                            platform->machine().uart());
    stub->attach();
    TimeTravel::Config cfg;
    cfg.interval = 2'000;
    cfg.ring = 32;
    tt = std::make_unique<TimeTravel>(*platform->monitor(), cfg);
    stub->set_time_travel(tt.get());
    dbg = std::make_unique<RemoteDebugger>(platform->machine());
    dbg->add_symbols(platform->image().kernel);
    dbg->add_symbols(platform->image().app);
  }

  std::unique_ptr<MachineUnit> platform;
  std::unique_ptr<vmm::DebugStub> stub;
  std::unique_ptr<TimeTravel> tt;
  std::unique_ptr<RemoteDebugger> dbg;
};

// The acceptance scenario: stop on a watchpoint, reverse-step, and land
// exactly one retired guest instruction earlier — then stepping forward
// re-fires the same watchpoint at the same pc and icount.
TEST(TimeTravelRsp, ReverseStepFromWatchpointHit) {
  TtRig rig;
  ASSERT_TRUE(rig.dbg->connect());
  rig.platform->machine().run_for(seconds_to_cycles(0.03));
  rig.tt->enable();

  // First hit: its history window contains the Z2/'c' wire traffic, which
  // replay cannot reproduce. Continuing from it anchors a checkpoint at the
  // resume, so the window up to the SECOND hit is debugger-quiet and
  // replays bit-identically — reverse from there.
  const u32 tick_addr = guest::kMailboxBase + Mailbox::kTicks;
  ASSERT_TRUE(rig.dbg->set_watchpoint(tick_addr, 4));
  ASSERT_EQ(rig.dbg->continue_and_wait(seconds_to_cycles(0.01)),
            StopKind::kBreak);
  ASSERT_NE(rig.dbg->last_stop().find("watch:"), std::string::npos);
  ASSERT_EQ(rig.dbg->continue_and_wait(seconds_to_cycles(0.01)),
            StopKind::kBreak);
  ASSERT_NE(rig.dbg->last_stop().find("watch:"), std::string::npos);
  ASSERT_EQ(rig.dbg->watch_address().value_or(0), tick_addr);
  ASSERT_GT(rig.tt->checkpoint_count(), 0u);

  const auto n0 = rig.dbg->icount();
  ASSERT_TRUE(n0);
  const auto regs0 = rig.dbg->read_registers();
  ASSERT_TRUE(regs0);

  ASSERT_EQ(rig.dbg->reverse_step(), StopKind::kBreak);
  const auto n1 = rig.dbg->icount();
  ASSERT_TRUE(n1);
  EXPECT_EQ(*n1, *n0 - 1) << "reverse-step must land exactly one retired "
                             "instruction earlier";

  // One forward step re-executes the store: same watch, same pc, same icount.
  ASSERT_EQ(rig.dbg->step(), StopKind::kBreak);
  EXPECT_NE(rig.dbg->last_stop().find("watch:"), std::string::npos);
  EXPECT_EQ(rig.dbg->watch_address().value_or(0), tick_addr);
  EXPECT_EQ(rig.dbg->icount().value_or(0), *n0);
  const auto regs1 = rig.dbg->read_registers();
  ASSERT_TRUE(regs1);
  EXPECT_EQ(regs1->pc, regs0->pc);
}

// reverse-continue returns to the LAST watchpoint hit before the current
// position.
TEST(TimeTravelRsp, ReverseContinueLandsOnPreviousWatchHit) {
  TtRig rig;
  ASSERT_TRUE(rig.dbg->connect());
  rig.platform->machine().run_for(seconds_to_cycles(0.03));
  rig.tt->enable();

  // Two hits: continuing from the first anchors a checkpoint at the resume,
  // so the window covering the second hit is debugger-quiet and replayable
  // (see ReverseStepFromWatchpointHit).
  const u32 tick_addr = guest::kMailboxBase + Mailbox::kTicks;
  ASSERT_TRUE(rig.dbg->set_watchpoint(tick_addr, 4));
  ASSERT_EQ(rig.dbg->continue_and_wait(seconds_to_cycles(0.01)),
            StopKind::kBreak);
  ASSERT_EQ(rig.dbg->continue_and_wait(seconds_to_cycles(0.01)),
            StopKind::kBreak);
  ASSERT_NE(rig.dbg->last_stop().find("watch:"), std::string::npos);
  const auto n1 = rig.dbg->icount();
  ASSERT_TRUE(n1);
  const auto regs_hit = rig.dbg->read_registers();
  ASSERT_TRUE(regs_hit);

  // Move a couple of instructions past the hit, then run backwards. (A
  // stepped instruction can retire twice — faulting attempt plus re-run —
  // so read the position back instead of assuming +1 per step.)
  ASSERT_EQ(rig.dbg->step(), StopKind::kBreak);
  ASSERT_EQ(rig.dbg->step(), StopKind::kBreak);
  const auto n2 = rig.dbg->icount();
  ASSERT_TRUE(n2);
  ASSERT_GT(*n2, *n1);

  ASSERT_EQ(rig.dbg->reverse_continue(), StopKind::kBreak);
  EXPECT_NE(rig.dbg->last_stop().find("watch:"), std::string::npos);
  EXPECT_EQ(rig.dbg->watch_address().value_or(0), tick_addr);
  EXPECT_EQ(rig.dbg->icount().value_or(0), *n1);
  const auto regs_back = rig.dbg->read_registers();
  ASSERT_TRUE(regs_back);
  EXPECT_EQ(regs_back->pc, regs_hit->pc);
}

// Stepping off a breakpoint anchors a checkpoint after the stub armed the
// trap flag. Reverse-stepping lands on that checkpoint; once the breakpoint
// is cleared, a plain continue must run the guest on, not deliver a stray
// single-step #DB that the guest cannot handle.
TEST(TimeTravelRsp, ContinueAfterReverseStepOffBreakpointRunsCleanly) {
  TtRig rig;
  ASSERT_TRUE(rig.dbg->connect());
  rig.platform->machine().run_for(seconds_to_cycles(0.03));
  rig.tt->enable();

  const auto isr_nic = rig.dbg->lookup("isr_nic");
  ASSERT_TRUE(isr_nic);
  ASSERT_TRUE(rig.dbg->set_breakpoint(*isr_nic));
  ASSERT_EQ(rig.dbg->continue_and_wait(seconds_to_cycles(0.05)),
            StopKind::kBreak);
  ASSERT_EQ(rig.dbg->read_registers()->pc, *isr_nic);
  ASSERT_EQ(rig.dbg->step(), StopKind::kBreak);
  const auto stepped = rig.dbg->icount();
  ASSERT_TRUE(stepped);
  ASSERT_EQ(rig.dbg->reverse_step(), StopKind::kBreak);
  ASSERT_EQ(rig.dbg->icount().value_or(0), *stepped - 1);
  ASSERT_EQ(rig.dbg->read_registers()->pc, *isr_nic);
  EXPECT_FALSE(rig.platform->machine().cpu().state().trap_flag())
      << "the landing kept the abandoned step's trap flag armed";

  ASSERT_TRUE(rig.dbg->clear_breakpoint(*isr_nic));
  EXPECT_EQ(rig.dbg->continue_and_wait(seconds_to_cycles(0.002)),
            StopKind::kTimeout);
  rig.platform->machine().run_for(seconds_to_cycles(0.01));
  EXPECT_EQ(rig.platform->mailbox().last_error, 0u);
  EXPECT_EQ(rig.platform->sink().checksum_errors(), 0u);
}

// Resuming off a breakpoint anchors a checkpoint mid step-over: the site
// is un-patched and the trap flag armed. Replaying from it must execute the
// original instruction there, as the recorded run did, so the checkpoint's
// window holds no hit and reverse-continue lands on the earlier hit itself,
// replayed from before it: same icount, same pc, same simulated time.
TEST(TimeTravelRsp, ReverseContinueLandsOnHitBehindSteppedOverBreakpoint) {
  TtRig rig;
  vmm::ExitTracer tracer;
  tracer.set_enabled(true);
  rig.platform->monitor()->set_tracer(&tracer);
  ASSERT_TRUE(rig.dbg->connect());
  rig.platform->machine().run_for(seconds_to_cycles(0.03));
  rig.tt->enable();

  // The newest guest stop: icount, and the simulated time the monitor froze
  // the guest (traced before any debugger reply is charged).
  auto last_stop = [&] {
    const auto events = tracer.snapshot();
    const auto it = std::find_if(
        events.rbegin(), events.rend(), [](const vmm::TraceEvent& e) {
          return e.kind == vmm::TraceKind::kDebugStop;
        });
    return std::pair(rig.dbg->icount().value_or(0),
                     it == events.rend() ? Cycles{0} : it->timestamp);
  };

  const auto isr_nic = rig.dbg->lookup("isr_nic");
  ASSERT_TRUE(isr_nic);
  ASSERT_TRUE(rig.dbg->set_breakpoint(*isr_nic));
  ASSERT_EQ(rig.dbg->continue_and_wait(seconds_to_cycles(0.05)),
            StopKind::kBreak);
  const auto first = last_stop();
  ASSERT_EQ(rig.dbg->continue_and_wait(seconds_to_cycles(0.05)),
            StopKind::kBreak);
  ASSERT_GT(last_stop().first, first.first);

  ASSERT_EQ(rig.dbg->reverse_continue(), StopKind::kBreak);
  EXPECT_EQ(last_stop(), first);
  EXPECT_EQ(rig.dbg->read_registers()->pc, *isr_nic);

  // Stepping twice past a hit anchors two more checkpoints, the first again
  // mid step-over; reverse-continue returns to that hit.
  ASSERT_EQ(rig.dbg->continue_and_wait(seconds_to_cycles(0.05)),
            StopKind::kBreak);
  const auto hit = last_stop();
  ASSERT_EQ(rig.dbg->step(), StopKind::kBreak);
  ASSERT_EQ(rig.dbg->step(), StopKind::kBreak);
  ASSERT_EQ(rig.dbg->reverse_continue(), StopKind::kBreak);
  EXPECT_EQ(last_stop(), hit);
  EXPECT_EQ(rig.dbg->read_registers()->pc, *isr_nic);
}

// Reverse without history is refused over the wire (Exx -> kError) and the
// target stays usable.
TEST(TimeTravelRsp, ReverseWithoutHistoryIsRefused) {
  TtRig rig;  // tt never enabled: no checkpoints
  ASSERT_TRUE(rig.dbg->connect());
  rig.platform->machine().run_for(seconds_to_cycles(0.01));
  ASSERT_EQ(rig.dbg->interrupt(), StopKind::kBreak);

  const auto n = rig.dbg->icount();
  ASSERT_TRUE(n);
  EXPECT_EQ(rig.dbg->reverse_step(), StopKind::kError);
  EXPECT_EQ(rig.dbg->reverse_continue(), StopKind::kError);
  EXPECT_EQ(rig.dbg->icount().value_or(0), *n);
  // Still debuggable.
  EXPECT_EQ(rig.dbg->step(), StopKind::kBreak);
  EXPECT_EQ(rig.dbg->icount().value_or(0), *n + 1);
}

// Host-side snapshot slot over the wire: save, run forward, load, and the
// target is back at the saved position and still steppable.
TEST(TimeTravelRsp, SnapshotSaveLoadOverRsp) {
  TtRig rig;
  ASSERT_TRUE(rig.dbg->connect());
  rig.platform->machine().run_for(seconds_to_cycles(0.01));
  ASSERT_EQ(rig.dbg->interrupt(), StopKind::kBreak);

  const auto n0 = rig.dbg->icount();
  ASSERT_TRUE(n0);
  ASSERT_TRUE(rig.dbg->snapshot_save());

  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(rig.dbg->step(), StopKind::kBreak);
  }
  ASSERT_EQ(rig.dbg->icount().value_or(0), *n0 + 3);

  ASSERT_TRUE(rig.dbg->snapshot_load());
  EXPECT_EQ(rig.dbg->icount().value_or(0), *n0);
  EXPECT_EQ(rig.dbg->step(), StopKind::kBreak);
  EXPECT_EQ(rig.dbg->icount().value_or(0), *n0 + 1);
}

// Checkpoint control over the wire.
TEST(TimeTravelRsp, CheckpointQueriesOverRsp) {
  TtRig rig;
  ASSERT_TRUE(rig.dbg->connect());
  rig.platform->machine().run_for(seconds_to_cycles(0.01));
  ASSERT_EQ(rig.dbg->interrupt(), StopKind::kBreak);

  EXPECT_EQ(rig.dbg->checkpoint_count().value_or(99), 0u);
  ASSERT_TRUE(rig.dbg->take_checkpoint());
  EXPECT_EQ(rig.dbg->checkpoint_count().value_or(0), 1u);
}

}  // namespace
}  // namespace vdbg::test
