// End-to-end tests of MiniTactix under the lightweight VMM: identical guest
// behaviour, device passthrough, shadow paging, interrupt virtualisation,
// and — the paper's stability claim — monitor survival across guest faults.
#include <gtest/gtest.h>

#include "asm/assembler.h"
#include "common/units.h"
#include "fleet/machine_unit.h"
#include "guest/layout.h"
#include "hw/scsi_disk.h"

namespace vdbg::test {
namespace {

using guest::Mailbox;
using guest::RunConfig;
using fleet::MachineUnit;
using fleet::UnitKind;
using hw::Machine;

TEST(LvmmBoot, ReachesMagicAndTicksLikeNative) {
  MachineUnit p(UnitKind::kLvmm);
  p.prepare(RunConfig());
  p.machine().run_for(seconds_to_cycles(0.05));
  const auto mb = p.mailbox();
  EXPECT_EQ(mb.magic, Mailbox::kMagicValue);
  EXPECT_NEAR(double(mb.ticks), 50.0, 5.0);  // virtualised timer still 1 kHz
  EXPECT_EQ(mb.last_error, 0u);
  EXPECT_FALSE(p.monitor()->vcpu().crashed);
  EXPECT_TRUE(p.monitor()->monitor_memory_intact());

  const auto& ex = p.monitor()->exit_stats();
  EXPECT_GT(ex.total, 0u);
  EXPECT_GT(ex.privileged_instr, 0u);  // CLI/STI/HLT/IRET/LIDT/CR traps
  EXPECT_GT(ex.io_emulated, 0u);       // PIC/PIT accesses
  EXPECT_GT(ex.injections, 0u);        // timer interrupts injected
  EXPECT_GT(ex.shadow_syncs, 0u);      // hidden page faults
  EXPECT_GT(ex.soft_ints, 0u);         // app syscalls
}

TEST(LvmmTransfer, FullPipelineIntegrityUnderTheMonitor) {
  RunConfig rc = RunConfig::for_rate_mbps(60.0);
  rc.stop_after_segments = 48;
  MachineUnit p(UnitKind::kLvmm);
  p.prepare(rc);
  p.sink().set_payload_validator(guest::make_stream_validator(rc));

  const auto stop = p.machine().run_until_stopped(seconds_to_cycles(2.0));
  EXPECT_EQ(stop, Machine::StopReason::kGuestExit);
  EXPECT_EQ(p.machine().guest_exit_code().value_or(0), guest::kExitDone);
  p.machine().clear_guest_exit();
  p.machine().run_for(seconds_to_cycles(0.002));

  EXPECT_GE(p.sink().frames(), 48u);
  EXPECT_EQ(p.sink().parse_errors(), 0u);
  EXPECT_EQ(p.sink().checksum_errors(), 0u);
  EXPECT_EQ(p.sink().sequence_gaps(), 0u);
  EXPECT_EQ(p.sink().content_errors(), 0u);
  EXPECT_EQ(p.mailbox().last_error, 0u);
  EXPECT_TRUE(p.monitor()->monitor_memory_intact());
}

TEST(LvmmTransfer, HighThroughputDevicesAreDirectAccess) {
  RunConfig rc = RunConfig::for_rate_mbps(60.0);
  rc.stop_after_segments = 32;
  MachineUnit p(UnitKind::kLvmm);
  p.prepare(rc);
  p.machine().run_until_stopped(seconds_to_cycles(2.0));

  // The guest performed NIC doorbells, NIC ISR reads/acks and SCSI accesses;
  // none of them may appear as emulated-I/O exits. Only PIC/PIT/UART do.
  const auto& ex = p.monitor()->exit_stats();
  EXPECT_EQ(ex.unknown_ports, 0u);
  // Emulated I/O =~ PIC programming (10 writes) + EOIs; each EOI pairs with
  // an injection. NIC doorbells alone (32+) would dwarf this if trapped.
  EXPECT_GT(p.machine().cpu().stats().io_accesses, ex.io_emulated);
}

TEST(LvmmProtect, UserWildWriteToMonitorAddressReflectsToGuest) {
  MachineUnit p(UnitKind::kLvmm);
  p.prepare(RunConfig());
  // Replace the app: write to the monitor's home (beyond guest RAM).
  vasm::Assembler a(guest::kAppBase);
  a.movi(cpu::kR1, u32{guest::kMonitorBase + 0x40});
  a.movi(cpu::kR0, u32{0xbad});
  a.st32(cpu::kR1, 0, cpu::kR0);
  a.finalize().load(p.machine().mem());

  const auto stop = p.machine().run_until_stopped(seconds_to_cycles(1.0));
  EXPECT_EQ(stop, Machine::StopReason::kGuestExit);  // guest panics itself
  EXPECT_EQ(p.mailbox().last_error, u32{cpu::kVecPf});
  EXPECT_TRUE(p.monitor()->monitor_memory_intact());
  EXPECT_FALSE(p.monitor()->vcpu().crashed);
}

TEST(LvmmProtect, GuestKernelMappingMonitorFramesIsDenied) {
  // A malicious/buggy guest kernel builds page tables that map a virtual
  // page onto a monitor frame, then writes through it. The shadow refuses:
  // the guest sees #PF; with no working IDT it triple-faults (virtually);
  // the monitor survives.
  MachineUnit p(UnitKind::kLvmm);
  vasm::Assembler a(guest::kKernelBase);
  using namespace vasm;
  using cpu::kR0;
  using cpu::kR1;
  using cpu::kR2;
  using cpu::kSp;
  a.label("entry");
  a.movi(kSp, u32{0x20000});
  // Page directory at 0x40000, one table at 0x41000.
  // PT[16] (va 0x10000..) identity so our code keeps running; PT[0x60]
  // (va 0x60000) -> the monitor's base frame.
  a.movi(kR1, u32{0x40000});
  a.movi(kR0, u32{0x41000 | 7});
  a.st32(kR1, 0, kR0);
  a.movi(kR2, u32{0x41000});
  for (u32 page = 0x10; page <= 0x20; ++page) {  // identity for kernel+stack
    a.movi(kR0, u32{(page << 12) | 3});
    a.st32(kR2, i32(page * 4), kR0);
  }
  a.movi(kR0, u32{guest::kMonitorBase | 3});
  a.st32(kR2, i32(0x60 * 4), kR0);  // va 0x60000 -> monitor frame
  a.movi(kR0, u32{0x40000});
  a.mov_to_cr(cpu::kCr3, kR0);
  a.movi(kR0, u32{1});
  a.mov_to_cr(cpu::kCr0, kR0);
  // Now stab at the monitor through the mapping.
  a.movi(kR1, u32{0x60000});
  a.movi(kR0, u32{0xdeadc0de});
  a.st32(kR1, 0, kR0);
  a.hlt();
  auto prog = a.finalize();

  p.prepare(RunConfig());
  prog.load(p.machine().mem());
  p.machine().cpu().state().pc = *prog.symbol("entry");

  p.machine().run_for(seconds_to_cycles(0.01));
  EXPECT_TRUE(p.monitor()->vcpu().crashed);  // virtual triple fault
  EXPECT_TRUE(p.monitor()->monitor_memory_intact());
  // The machine (and thus the debug environment) is still alive.
  EXPECT_FALSE(p.machine().cpu().shutdown());
}

TEST(LvmmProtect, DmaToMonitorFramesIsRefused) {
  MachineUnit p(UnitKind::kLvmm);
  // Zero rate + small chunks: the guest's prefetch finishes quickly and the
  // controllers go idle, so our probe request doesn't race guest traffic.
  RunConfig rc;
  rc.chunk_bytes = 64 * 1024;
  p.prepare(rc);
  p.machine().run_for(seconds_to_cycles(0.02));  // boot + prefetch drain
  ASSERT_FALSE(p.machine().disk(0).busy());

  // Host-side: craft a SCSI request targeting the monitor region and ring
  // the first controller's doorbell directly (as the guest could).
  auto& mem = p.machine().mem();
  const PAddr req = 0x00700000;
  mem.write32(req + 0, 0);                       // lba
  mem.write32(req + 4, 16);                      // sectors
  mem.write32(req + 8, guest::kMonitorBase);     // DMA target: monitor!
  p.machine().disk(0).io_write(0x00, req);
  p.machine().disk(0).io_write(0x04, 1);
  p.machine().run_for(seconds_to_cycles(0.01));

  EXPECT_EQ(p.machine().disk(0).io_read(0x0c), u32{hw::ScsiDisk::kDmaError});
  EXPECT_TRUE(p.monitor()->monitor_memory_intact());
}

TEST(LvmmCrash, GuestTripleFaultLeavesMonitorAlive) {
  MachineUnit p(UnitKind::kLvmm);
  p.prepare(RunConfig());
  p.machine().run_for(seconds_to_cycles(0.01));  // boot to steady state
  ASSERT_EQ(p.mailbox().magic, Mailbox::kMagicValue);

  // Destroy the guest's IDT under it; the next timer injection finds no
  // usable gates, escalates #DF, and virtually triple-faults.
  const auto idt = p.image().kernel.symbol("idt").value();
  for (u32 i = 0; i < guest::kIdtEntries * 8; i += 4) {
    p.machine().mem().write32(idt + i, 0);
  }
  p.machine().run_for(seconds_to_cycles(0.01));

  EXPECT_TRUE(p.monitor()->vcpu().crashed);
  EXPECT_FALSE(p.machine().cpu().shutdown());  // machine survives
  EXPECT_TRUE(p.monitor()->monitor_memory_intact());
  // Contrast with native: the same fault pattern powers the machine off
  // (see CpuTrap.TripleFaultShutsDown).
}

TEST(HostedVmm, BootsAndTransfersWithHostPathCharges) {
  RunConfig rc = RunConfig::for_rate_mbps(20.0);
  rc.stop_after_segments = 16;
  MachineUnit p(UnitKind::kHosted);
  p.prepare(rc);
  p.sink().set_payload_validator(guest::make_stream_validator(rc));

  const auto stop = p.machine().run_until_stopped(seconds_to_cycles(3.0));
  EXPECT_EQ(stop, Machine::StopReason::kGuestExit);
  p.machine().clear_guest_exit();
  p.machine().run_for(seconds_to_cycles(0.002));

  EXPECT_GE(p.sink().frames(), 16u);
  EXPECT_EQ(p.sink().checksum_errors(), 0u);
  EXPECT_EQ(p.sink().content_errors(), 0u);

  auto* h = p.hosted();
  ASSERT_NE(h, nullptr);
  EXPECT_GT(h->hosted_stats().world_switches, 0u);
  EXPECT_GT(h->hosted_stats().host_syscalls, 0u);
  EXPECT_GT(h->hosted_stats().bytes_copied, 16u * 1024u);
  EXPECT_GT(h->hosted_stats().device_accesses, 16u);  // NIC/SCSI all trapped
}

TEST(PlatformCompare, CpuLoadOrderingMatchesThePaper) {
  auto load_at = [](UnitKind k, double mbps) {
    MachineUnit p(k);
    p.prepare(RunConfig::for_rate_mbps(mbps));
    p.machine().run_for(seconds_to_cycles(0.02));
    const auto probe = p.machine().begin_load_probe();
    p.machine().run_for(seconds_to_cycles(0.03));
    return p.machine().cpu_load(probe);
  };
  const double native = load_at(UnitKind::kNative, 30.0);
  const double lvmm = load_at(UnitKind::kLvmm, 30.0);
  const double hosted = load_at(UnitKind::kHosted, 30.0);
  EXPECT_GT(lvmm, native);
  EXPECT_GT(hosted, lvmm);
}

}  // namespace
}  // namespace vdbg::test
