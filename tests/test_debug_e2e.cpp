// End-to-end remote-debugging tests: host debugger <-> serial link <->
// monitor stub <-> guest, while the guest streams I/O — the paper's core
// use case (debug an OS *without* stopping its high-throughput I/O from
// working, and survive its crashes).
#include <gtest/gtest.h>

#include "asm/assembler.h"
#include "common/units.h"
#include "cpu/isa.h"
#include "cpu/superblock.h"
#include "debug/remote_debugger.h"
#include "fleet/machine_unit.h"
#include "guest/layout.h"
#include "guest/minitactix.h"
#include "vmm/stub.h"
#include "vmm/time_travel.h"

namespace vdbg::test {
namespace {

using debug::RemoteDebugger;
using guest::RunConfig;
using fleet::MachineUnit;
using fleet::UnitKind;
using StopKind = RemoteDebugger::StopKind;

struct DebugRig {
  explicit DebugRig(RunConfig rc = RunConfig()) {
    platform = std::make_unique<MachineUnit>(UnitKind::kLvmm);
    platform->prepare(rc);
    stub = std::make_unique<vmm::DebugStub>(*platform->monitor(),
                                            platform->machine().uart());
    stub->attach();
    dbg = std::make_unique<RemoteDebugger>(platform->machine());
    dbg->add_symbols(platform->image().kernel);
    dbg->add_symbols(platform->image().app);
  }

  std::unique_ptr<MachineUnit> platform;
  std::unique_ptr<vmm::DebugStub> stub;
  std::unique_ptr<RemoteDebugger> dbg;
};

TEST(DebugSession, ConnectInterruptInspectResume) {
  DebugRig rig(RunConfig::for_rate_mbps(40.0));
  ASSERT_TRUE(rig.dbg->connect());

  // Let the guest boot and stream a little.
  rig.platform->machine().run_for(seconds_to_cycles(0.03));
  ASSERT_EQ(rig.platform->mailbox().magic, guest::Mailbox::kMagicValue);

  // Break in asynchronously.
  EXPECT_EQ(rig.dbg->interrupt(), StopKind::kBreak);
  EXPECT_TRUE(rig.stub->target_stopped());

  const auto regs = rig.dbg->read_registers();
  ASSERT_TRUE(regs.has_value());
  EXPECT_NE(regs->pc, 0u);

  // While frozen, guest counters must not advance (CPU stopped) ...
  const auto before = rig.platform->mailbox();
  rig.platform->machine().run_for(seconds_to_cycles(0.01));
  const auto after = rig.platform->mailbox();
  EXPECT_EQ(before.segments_sent, after.segments_sent);

  // ... and resuming picks the stream back up.
  EXPECT_EQ(rig.dbg->continue_and_wait(seconds_to_cycles(0.001)),
            StopKind::kTimeout);  // no stop event: it simply runs
  rig.platform->machine().run_for(seconds_to_cycles(0.03));
  EXPECT_GT(rig.platform->mailbox().segments_sent, after.segments_sent);
}

TEST(DebugSession, BreakpointInNicDriverHitsDuringStreaming) {
  DebugRig rig(RunConfig::for_rate_mbps(40.0));
  ASSERT_TRUE(rig.dbg->connect());
  rig.platform->machine().run_for(seconds_to_cycles(0.03));

  const auto isr_nic = rig.dbg->lookup("isr_nic");
  ASSERT_TRUE(isr_nic.has_value());
  ASSERT_TRUE(rig.dbg->set_breakpoint(*isr_nic));

  // The NIC completes a frame within a few ms at 40 Mbps.
  const auto stop = rig.dbg->continue_and_wait(seconds_to_cycles(0.05));
  // 'c' while running is a no-op command, so the stop arrives as a packet.
  ASSERT_EQ(stop, StopKind::kBreak);
  const auto regs = rig.dbg->read_registers();
  ASSERT_TRUE(regs.has_value());
  EXPECT_EQ(regs->pc, *isr_nic);
  EXPECT_EQ(rig.dbg->describe(regs->pc), "isr_nic");

  // Hit it again: transparent step-over must re-arm the breakpoint.
  ASSERT_EQ(rig.dbg->continue_and_wait(seconds_to_cycles(0.05)),
            StopKind::kBreak);
  EXPECT_EQ(rig.dbg->read_registers()->pc, *isr_nic);

  // Remove it and stream on cleanly.
  ASSERT_TRUE(rig.dbg->clear_breakpoint(*isr_nic));
  EXPECT_EQ(rig.dbg->continue_and_wait(seconds_to_cycles(0.002)),
            StopKind::kTimeout);
  rig.platform->machine().run_for(seconds_to_cycles(0.02));
  EXPECT_EQ(rig.platform->sink().sequence_gaps(), 0u);
  EXPECT_EQ(rig.platform->sink().checksum_errors(), 0u);
  EXPECT_EQ(rig.platform->mailbox().last_error, 0u);
}

TEST(DebugSession, SingleStepAdvancesOneInstruction) {
  DebugRig rig(RunConfig::for_rate_mbps(40.0));
  ASSERT_TRUE(rig.dbg->connect());
  rig.platform->machine().run_for(seconds_to_cycles(0.03));
  ASSERT_EQ(rig.dbg->interrupt(), StopKind::kBreak);

  const auto before = rig.dbg->read_registers();
  ASSERT_TRUE(before.has_value());
  ASSERT_EQ(rig.dbg->step(), StopKind::kBreak);
  const auto after = rig.dbg->read_registers();
  ASSERT_TRUE(after.has_value());
  EXPECT_NE(after->pc, before->pc);
}

TEST(DebugSession, MemoryReadWriteRoundTripAndDisassembly) {
  DebugRig rig;
  ASSERT_TRUE(rig.dbg->connect());
  rig.platform->machine().run_for(seconds_to_cycles(0.02));
  ASSERT_EQ(rig.dbg->interrupt(), StopKind::kBreak);

  const u32 scratch = 0x00700000;  // free guest RAM
  std::vector<u8> pattern(64);
  for (std::size_t i = 0; i < pattern.size(); ++i) {
    pattern[i] = static_cast<u8>(i * 7 + 1);
  }
  ASSERT_TRUE(rig.dbg->write_memory(scratch, pattern));
  const auto back = rig.dbg->read_memory(scratch, 64);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, pattern);

  // Disassemble the guest entry: first instruction sets up the stack.
  const auto entry = rig.dbg->lookup("entry");
  ASSERT_TRUE(entry.has_value());
  const auto lines = rig.dbg->disassemble(*entry, 2);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("movi sp"), std::string::npos);
}

TEST(DebugSession, BreakpointSitesReadBackOriginalBytes) {
  DebugRig rig(RunConfig::for_rate_mbps(40.0));
  ASSERT_TRUE(rig.dbg->connect());
  rig.platform->machine().run_for(seconds_to_cycles(0.02));

  const auto isr = rig.dbg->lookup("isr_timer").value();
  const auto orig = rig.dbg->read_memory(isr, 8).value();
  ASSERT_TRUE(rig.dbg->set_breakpoint(isr));
  // Raw guest memory now holds BRK...
  u8 raw = 0;
  rig.platform->monitor()->guest_read(isr, {&raw, 1});
  EXPECT_EQ(raw, static_cast<u8>(cpu::Opcode::kBrk));
  // ...but the debugger's view is transparent.
  EXPECT_EQ(rig.dbg->read_memory(isr, 8).value(), orig);
  ASSERT_TRUE(rig.dbg->clear_breakpoint(isr));
  rig.platform->monitor()->guest_read(isr, {&raw, 1});
  EXPECT_EQ(raw, orig[0]);
}

TEST(DebugSession, RegisterWritesTakeEffect) {
  DebugRig rig;
  ASSERT_TRUE(rig.dbg->connect());
  rig.platform->machine().run_for(seconds_to_cycles(0.02));
  ASSERT_EQ(rig.dbg->interrupt(), StopKind::kBreak);
  ASSERT_TRUE(rig.dbg->write_register(3, 0xfeedface));
  EXPECT_EQ(rig.dbg->read_registers()->r[3], 0xfeedfaceu);
}

TEST(DebugSession, GuestCrashIsReportedAndPostMortemWorks) {
  DebugRig rig;
  ASSERT_TRUE(rig.dbg->connect());
  rig.platform->machine().run_for(seconds_to_cycles(0.01));

  // Destroy the guest IDT -> next injection virtually triple-faults.
  const auto idt = rig.platform->image().kernel.symbol("idt").value();
  for (u32 i = 0; i < guest::kIdtEntries * 8; i += 4) {
    rig.platform->machine().mem().write32(idt + i, 0);
  }
  rig.platform->machine().run_for(seconds_to_cycles(0.01));
  ASSERT_TRUE(rig.platform->monitor()->vcpu().crashed);

  // The stub (and the whole debug environment) is still operational:
  EXPECT_TRUE(rig.dbg->target_crashed());
  EXPECT_TRUE(rig.dbg->monitor_intact());
  // Post-mortem inspection of the dead guest works.
  const auto regs = rig.dbg->read_registers();
  ASSERT_TRUE(regs.has_value());
  const auto mb = rig.dbg->read_memory(guest::kMailboxBase, 16);
  ASSERT_TRUE(mb.has_value());
  EXPECT_EQ((*mb)[0], 'i');  // "Mini" magic, little-endian
}

TEST(DebugSession, LargeMemoryTransfersAreChunkedAcrossPackets) {
  // 16 KiB is far beyond both the stub's 0x1000-byte per-command cap and
  // the debugger's 0x800-byte chunk size: the round trip only works if
  // both read_memory and write_memory split into multiple transactions.
  DebugRig rig;
  ASSERT_TRUE(rig.dbg->connect());
  rig.platform->machine().run_for(seconds_to_cycles(0.02));
  ASSERT_EQ(rig.dbg->interrupt(), StopKind::kBreak);

  const u32 scratch = 0x00700000;  // free guest RAM
  std::vector<u8> pattern(16 * 1024);
  for (std::size_t i = 0; i < pattern.size(); ++i) {
    pattern[i] = static_cast<u8>((i * 31 + (i >> 8)) & 0xff);
  }
  ASSERT_TRUE(rig.dbg->write_memory(scratch, pattern));
  const auto back = rig.dbg->read_memory(scratch, pattern.size());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, pattern);

  // Spot-check a chunk boundary actually landed in guest RAM.
  u8 raw = 0;
  rig.platform->monitor()->guest_read(scratch + 0x800, {&raw, 1});
  EXPECT_EQ(raw, pattern[0x800]);
}

TEST(DebugSession, ExitStatsQueryReportsPerKindCounters) {
  DebugRig rig(RunConfig::for_rate_mbps(40.0));
  ASSERT_TRUE(rig.dbg->connect());
  rig.platform->machine().run_for(seconds_to_cycles(0.05));
  ASSERT_EQ(rig.dbg->interrupt(), StopKind::kBreak);

  const auto stats = rig.dbg->exit_stats();
  ASSERT_TRUE(stats.has_value());
  ASSERT_EQ(stats->size(), vmm::kNumExitKinds);
  u64 irq_count = 0, softint_count = 0;
  for (const auto& s : *stats) {
    if (s.kind == "irq") irq_count = s.count;
    if (s.kind == "softint") softint_count = s.count;
    if (s.count > 0) {
      EXPECT_GT(s.cycles, 0u) << s.kind;
    }
  }
  // A streaming guest takes timer/NIC interrupts and issues syscalls.
  EXPECT_GT(irq_count, 0u);
  EXPECT_GT(softint_count, 0u);

  // The wire stats agree with the monitor's own counters.
  const auto& es = rig.platform->monitor()->exit_stats();
  for (const auto& s : *stats) {
    for (unsigned k = 0; k < vmm::kNumExitKinds; ++k) {
      if (s.kind == vmm::exit_kind_name(static_cast<vmm::ExitKind>(k))) {
        EXPECT_EQ(s.count, es.by_kind[k].count) << s.kind;
      }
    }
  }
}

TEST(DebugSession, StreamSurvivesRepeatedBreakInsWithIntegrity) {
  RunConfig rc = RunConfig::for_rate_mbps(40.0);
  rc.stop_after_segments = 200;
  DebugRig rig(rc);
  rig.platform->sink().set_payload_validator(guest::make_stream_validator(rc));
  ASSERT_TRUE(rig.dbg->connect());

  for (int i = 0; i < 5; ++i) {
    rig.platform->machine().run_for(seconds_to_cycles(0.01));
    if (rig.platform->machine().guest_exit_code()) break;
    if (rig.dbg->interrupt() != StopKind::kBreak) break;
    rig.dbg->continue_and_wait(seconds_to_cycles(0.0005));
  }
  rig.platform->machine().run_until_stopped(seconds_to_cycles(2.0));
  rig.platform->machine().clear_guest_exit();
  rig.platform->machine().run_for(seconds_to_cycles(0.002));

  EXPECT_GE(rig.platform->sink().frames(), 200u);
  EXPECT_EQ(rig.platform->sink().sequence_gaps(), 0u);
  EXPECT_EQ(rig.platform->sink().content_errors(), 0u);
  EXPECT_EQ(rig.platform->sink().checksum_errors(), 0u);
}

// An RSP `M` rewrite of kernel text the guest runs every tick must take
// effect at once, in every tier. Nothing tells the CPU about the write: the
// page-version bump alone must retire the hot, chained decoded copy of the
// timer ISR's tick increment.
struct TickPatch {
  std::vector<u8> state;  // machine+monitor snapshot at the final stop
  u32 ticks_before = 0;
  u32 ticks_after = 0;
};

TickPatch patch_tick_increment(bool block_cache, bool superblocks) {
  TickPatch out;
  DebugRig rig(RunConfig::for_rate_mbps(40.0));
  auto& m = rig.platform->machine();
  m.cpu().set_block_cache_enabled(block_cache);
  m.cpu().set_superblocks_enabled(superblocks);
  EXPECT_TRUE(rig.dbg->connect());
  m.run_for(seconds_to_cycles(0.05));
  EXPECT_EQ(rig.dbg->interrupt(), StopKind::kBreak);
  out.ticks_before = rig.platform->mailbox().ticks;
  // Past the promotion threshold the increment runs from a superblock.
  EXPECT_GT(out.ticks_before, cpu::SuperblockCache::kHotThreshold);
  if (superblocks) {
    EXPECT_GT(m.cpu().sbc_stats().chains, 0u);
  }

  // isr_timer_count: ld32 r0, ticks; addi r0, r0, 1; st32 ticks, r0.
  const u32 site = rig.dbg->lookup("isr_timer_count").value_or(0) +
                   cpu::kInstrBytes;
  const auto old_bytes = rig.dbg->read_memory(site, cpu::kInstrBytes);
  EXPECT_TRUE(old_bytes && old_bytes->size() == cpu::kInstrBytes);
  if (!old_bytes || old_bytes->size() != cpu::kInstrBytes) return out;
  cpu::Instr add = cpu::Instr::decode(old_bytes->data());
  EXPECT_EQ(add.op, cpu::Opcode::kAddI);
  EXPECT_EQ(add.imm, 1u);
  add.imm = 0x10000;
  const auto new_bytes = add.encode();
  EXPECT_TRUE(rig.dbg->write_memory(site, new_bytes));

  EXPECT_EQ(rig.dbg->continue_and_wait(seconds_to_cycles(0.001)),
            StopKind::kTimeout);
  m.run_for(seconds_to_cycles(0.02));
  EXPECT_EQ(rig.dbg->interrupt(), StopKind::kBreak);
  out.ticks_after = rig.platform->mailbox().ticks;
  out.state = vmm::TimeTravel(*rig.platform->monitor()).save_state();
  EXPECT_EQ(rig.platform->mailbox().last_error, 0u);
  return out;
}

TEST(DebugSession, RspRewriteOfHotKernelTextTakesEffectInEveryTier) {
  const TickPatch super = patch_tick_increment(true, true);
  const TickPatch block = patch_tick_increment(true, false);
  const TickPatch interp = patch_tick_increment(false, false);

  // Every tick after the resume adds 0x10000; a break-in that froze the
  // ISR between its add and its store contributes one stale +1.
  const u32 delta = super.ticks_after - super.ticks_before;
  EXPECT_GE(delta >> 16, 10u) << "the patched increment never ran";
  EXPECT_LE(delta & 0xffff, 1u) << "the stale increment kept running";

  ASSERT_FALSE(super.state.empty());
  EXPECT_EQ(super.ticks_after, block.ticks_after);
  EXPECT_EQ(super.ticks_after, interp.ticks_after);
  EXPECT_EQ(super.state, block.state) << "tiers 2 and 1 diverged";
  EXPECT_EQ(super.state, interp.state) << "tier 2 and the interpreter diverged";
}

}  // namespace
}  // namespace vdbg::test
