// Monitor unit tests against small hand-built guests: privileged-instruction
// emulation, virtual IF/CPL/CR state, vPIC EOI <-> physical unmask coupling,
// injection semantics (DPL, stack switch, virtual PSW), guest IRET,
// double/triple fault containment, the guest-memory accessors and single
// steps over emulated instructions.
#include <gtest/gtest.h>

#include <set>

#include "asm/assembler.h"
#include "common/units.h"
#include "guest/layout.h"
#include "cpu/mmu.h"
#include "hw/machine.h"
#include "vmm/lvmm.h"

namespace vdbg::test {
namespace {

using namespace vasm;
using cpu::kR0;
using cpu::kR1;
using cpu::kR2;
using cpu::kR3;
using cpu::kSp;
using vmm::Lvmm;

/// Machine + monitor harness running a custom tiny guest (paging off).
struct VmmRig {
  VmmRig() : machine(hw::MachineConfig{}) {
    Lvmm::Config mc;
    mc.monitor_base = guest::kMonitorBase;
    mc.monitor_len = machine.config().mem_bytes - guest::kMonitorBase;
    mc.guest_mem_limit = guest::kGuestMemBytes;
    mon = std::make_unique<Lvmm>(machine, mc);
  }

  void load(const std::function<void(Assembler&)>& emit) {
    Assembler a(0x10000);
    emit(a);
    prog = a.finalize();
    prog.load(machine.mem());
    machine.cpu().state().pc = 0x10000;
    mon->install();
  }

  /// Emits a minimal guest IDT: all vectors -> "trap" which records the
  /// vector marker and halts; plus LIDT setup code must be in the body.
  static void emit_idt(Assembler& a) {
    a.label("trap");
    a.movi(kR3, u32{0x600});
    a.ld32(kR2, kSp, 0);  // errcode
    a.st32(kR3, 4, kR2);
    a.ld32(kR2, kSp, 4);  // pc
    a.st32(kR3, 8, kR2);
    a.ld32(kR2, kSp, 8);  // vpsw
    a.st32(kR3, 12, kR2);
    a.movi(kR2, u32{0x7e57});
    a.st32(kR3, 0, kR2);
    a.hlt();
    a.align(8);
    a.label("idt");
    for (int v = 0; v < 64; ++v) {
      a.data_ref(l("trap"));
      a.data32(cpu::Gate{0, true, 3, 0}.pack_flags());
    }
  }

  u32 marker() { return machine.mem().read32(0x600); }

  hw::Machine machine;
  std::unique_ptr<Lvmm> mon;
  vasm::Program prog;
};

TEST(LvmmUnit, GuestStartsDeprivilegedWithIdentityPaging) {
  VmmRig rig;
  rig.load([](Assembler& a) {
    a.movi(kR0, u32{1});
    a.hlt();
  });
  EXPECT_EQ(rig.machine.cpu().state().cpl(), cpu::kRing1);
  EXPECT_TRUE(rig.machine.cpu().state().paging_enabled());  // physical PG on
  rig.machine.run_for(100000);
  EXPECT_EQ(rig.machine.cpu().state().regs[0], 1u);
  EXPECT_TRUE(rig.mon->vcpu().halted);
  EXPECT_GE(rig.mon->exit_stats().privileged_instr, 1u);  // the HLT
}

TEST(LvmmUnit, CliStiTrackVirtualIfNotPhysical) {
  VmmRig rig;
  rig.load([](Assembler& a) {
    a.cli();
    a.movi(kR0, u32{1});
    a.sti();
    a.movi(kR0, u32{2});
    a.hlt();
  });
  rig.machine.run_for(50000);
  EXPECT_EQ(rig.machine.cpu().state().regs[0], 2u);
  EXPECT_TRUE(rig.mon->vcpu().vif);
  EXPECT_TRUE(rig.machine.cpu().state().intr_enabled());  // physical IF stays on
}

TEST(LvmmUnit, CrAccessesAreVirtualised) {
  VmmRig rig;
  rig.load([](Assembler& a) {
    a.movi(kR1, u32{0x12345000});
    a.mov_to_cr(cpu::kCrKernelSp, kR1);
    a.mov_from_cr(kR2, cpu::kCrKernelSp);
    a.mov_from_cr(kR3, cpu::kCr0);  // guest sees ITS CR0 (paging off -> 0)
    a.hlt();
  });
  rig.machine.run_for(100000);
  EXPECT_EQ(rig.machine.cpu().state().regs[2], 0x12345000u);
  EXPECT_EQ(rig.machine.cpu().state().regs[3], 0u);  // vCR0, not physical
  EXPECT_EQ(rig.mon->vcpu().vcr[cpu::kCrKernelSp], 0x12345000u);
}

TEST(LvmmUnit, SoftIntReflectsThroughGuestIdtWithVirtualPsw) {
  VmmRig rig;
  rig.load([](Assembler& a) {
    a.movi(kSp, u32{0x20000});
    a.movi(kR0, l("idt"));
    a.lidt(kR0, 64);
    a.sti();
    a.int_(0x21);
    a.brk();  // not reached
    VmmRig::emit_idt(a);
  });
  rig.machine.run_for(300000);
  EXPECT_EQ(rig.marker(), 0x7e57u);
  // vPSW in the frame shows vCPL0 and vIF set.
  const u32 vpsw = rig.machine.mem().read32(0x60c);
  EXPECT_EQ(vpsw & cpu::Psw::kCplMask, 0u);
  EXPECT_TRUE(vpsw & cpu::Psw::kIf);
  EXPECT_EQ(rig.mon->exit_stats().soft_ints, 1u);
  // Handler entered with vIF cleared.
  EXPECT_FALSE(rig.mon->vcpu().vif);
}

TEST(LvmmUnit, GuestIretRestoresVirtualState) {
  VmmRig rig;
  rig.load([](Assembler& a) {
    a.movi(kSp, u32{0x20000});
    a.movi(kR0, l("idt2"));
    a.lidt(kR0, 64);
    a.sti();
    a.int_(0x20);
    a.movi(kR1, u32{0xAAA});  // resumed here after handler IRET
    a.hlt();
    a.label("handler");
    a.movi(kR2, u32{0xBBB});
    a.iret();
    a.align(8);
    a.label("idt2");
    for (int v = 0; v < 64; ++v) {
      a.data_ref(l("handler"));
      a.data32(cpu::Gate{0, true, 3, 0}.pack_flags());
    }
  });
  rig.machine.run_for(400000);
  EXPECT_EQ(rig.machine.cpu().state().regs[1], 0xAAAu);
  EXPECT_EQ(rig.machine.cpu().state().regs[2], 0xBBBu);
  EXPECT_TRUE(rig.mon->vcpu().vif);  // restored by IRET
  EXPECT_TRUE(rig.mon->vcpu().halted);
}

TEST(LvmmUnit, MissingGateEscalatesToVirtualTripleFault) {
  VmmRig rig;
  rig.load([](Assembler& a) {
    a.int_(0x21);  // no LIDT at all: vidt_count == 0
    a.hlt();
  });
  rig.machine.run_for(100000);
  EXPECT_TRUE(rig.mon->vcpu().crashed);
  EXPECT_FALSE(rig.machine.cpu().shutdown());
  EXPECT_TRUE(rig.mon->monitor_memory_intact());
}

TEST(LvmmUnit, UnknownPortsAreHarmless) {
  VmmRig rig;
  rig.load([](Assembler& a) {
    a.in(kR0, 0x7777);
    a.movi(kR1, u32{0x55});
    a.out(0x7777, kR1);
    a.hlt();
  });
  rig.machine.run_for(100000);
  EXPECT_EQ(rig.machine.cpu().state().regs[0], 0xffffffffu);
  EXPECT_EQ(rig.mon->exit_stats().unknown_ports, 2u);
  EXPECT_TRUE(rig.mon->vcpu().halted);  // guest lived on
}

TEST(LvmmUnit, VpicEoiUnmasksPhysicalLine) {
  VmmRig rig;
  rig.load([](Assembler& a) {
    // Program the vPIC (ICW + unmask all), set IDT, enable, halt.
    auto outb = [&](u16 port, u32 v) {
      a.movi(kR0, u32{v});
      a.out(port, kR0);
    };
    a.movi(kSp, u32{0x20000});
    outb(0x20, 0x11);
    outb(0x21, 0x20);
    outb(0x21, 0x04);
    outb(0x21, 0x01);
    outb(0x21, 0x00);  // unmask all on master
    a.movi(kR0, l("idt3"));
    a.lidt(kR0, 64);
    a.sti();
    a.label("idle");
    a.hlt();
    a.jmp(l("idle"));
    a.label("tick_isr");
    a.movi(kR3, u32{0x700});
    a.ld32(kR2, kR3, 0);
    a.addi(kR2, kR2, u32{1});
    a.st32(kR3, 0, kR2);
    a.movi(kR0, u32{0x20});
    a.out(0x20, kR0);  // vPIC EOI -> monitor unmasks the physical line
    a.iret();
    a.align(8);
    a.label("idt3");
    for (int v = 0; v < 64; ++v) {
      a.data_ref(l("tick_isr"));
      a.data32(cpu::Gate{0, true, 0, 0}.pack_flags());
    }
  });
  // Drive the physical PIT by hand: 1 kHz.
  rig.machine.pit().io_write(3, 0x34);
  rig.machine.pit().io_write(0, 0xa9);
  rig.machine.pit().io_write(0, 0x04);
  rig.machine.run_for(seconds_to_cycles(0.01));
  const u32 ticks_seen = rig.machine.mem().read32(0x700);
  EXPECT_GE(ticks_seen, 8u);  // repeated delivery proves unmasking works
  EXPECT_LE(ticks_seen, 12u);
  EXPECT_GE(rig.mon->exit_stats().injections, 8u);
}

TEST(LvmmUnit, GuestMemoryAccessorsSpanPages) {
  VmmRig rig;
  rig.load([](Assembler& a) { a.hlt(); });
  std::vector<u8> data(cpu::kPageSize + 100);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<u8>(i * 3);
  }
  ASSERT_TRUE(rig.mon->guest_write(0x30f80, data));  // crosses a page
  std::vector<u8> back(data.size());
  ASSERT_TRUE(rig.mon->guest_read(0x30f80, back));
  EXPECT_EQ(back, data);
  // Beyond guest RAM is refused.
  u32 dummy = 0;
  EXPECT_FALSE(rig.mon->guest_read32(guest::kGuestMemBytes + 0x100, dummy));
  EXPECT_FALSE(rig.mon->guest_write32(guest::kGuestMemBytes + 0x100, 1));
}

TEST(LvmmUnit, ChargedCyclesAccumulateInStats) {
  VmmRig rig;
  rig.load([](Assembler& a) {
    a.cli();
    a.sti();
    a.hlt();
  });
  rig.machine.run_for(100000);
  const auto& ex = rig.mon->exit_stats();
  EXPECT_GE(ex.total, 3u);
  EXPECT_GT(ex.charged_cycles, ex.total * 1000);  // exit_base dominates
}

TEST(LvmmUnit, ReflectedGpFromUserPrivilegedInstruction) {
  VmmRig rig;
  rig.load([](Assembler& a) {
    a.movi(kSp, u32{0x20000});
    a.movi(kR0, l("idt"));
    a.lidt(kR0, 64);
    a.movi(kR0, u32{0x30000});
    a.mov_to_cr(cpu::kCrMonitorSp, kR0);
    a.sti();
    // Drop to vCPL3.
    a.movi(kR0, u32{0x40000});
    a.push(kR0);
    a.movi(kR0, u32{3 | cpu::Psw::kIf});
    a.push(kR0);
    a.movi(kR0, l("user"));
    a.push(kR0);
    a.movi(kR0, u32{0});
    a.push(kR0);
    a.iret();
    a.label("user");
    a.cli();  // privileged at vCPL3 -> guest-visible #GP
    a.brk();
    VmmRig::emit_idt(a);
  });
  rig.machine.run_for(400000);
  EXPECT_EQ(rig.marker(), 0x7e57u);
  // Frame's vPSW shows the interrupted context was vCPL3.
  const u32 vpsw = rig.machine.mem().read32(0x60c);
  EXPECT_EQ(vpsw & cpu::Psw::kCplMask, 3u);
  EXPECT_GE(rig.mon->exit_stats().reflected_faults, 1u);
}

/// Single-step debugger in miniature: wants the next #DB while a step is
/// armed and ends the machine's run at every stop.
class StepDelegate final : public vmm::DebugDelegate {
 public:
  explicit StepDelegate(hw::Machine& m) : machine_(m) {}
  bool owns_breakpoint(VAddr) override { return false; }
  bool wants_step() override { return stepping; }
  void on_guest_stop(StopReason reason) override {
    stepping = false;
    last = reason;
    machine_.external_stop();
  }
  void on_uart_activity() override {}

  bool stepping = false;
  StopReason last = StopReason::kBreakpoint;

 private:
  hw::Machine& machine_;
};

// Every instruction the monitor emulates is a whole step: a forward stepi
// over it must land on the next instruction with exactly one instruction
// retired, as over a native one. Covers a trapped port write, each
// privileged op (IRET lands on its return target, HLT halts behind the
// stop) and an emulated store into a guest page table.
TEST(LvmmUnit, StepOverEmulatedInstructionRetiresExactlyOne) {
  constexpr u32 kPd = 0x30000;
  constexpr u32 kPt = 0x31000;
  VmmRig rig;
  rig.load([](Assembler& a) {
    a.movi(kSp, u32{0x20000});
    a.movi(kR0, l("idt"));
    a.lidt(kR0, 64);
    a.cli();
    a.sti();
    a.movi(kR1, u32{0x55});
    a.out(0x7777, kR1);
    a.movi(kR1, u32{0x12345000});
    a.mov_to_cr(cpu::kCrKernelSp, kR1);
    a.mov_from_cr(kR2, cpu::kCrKernelSp);
    // IRET to "after_iret" at the same virtual privilege.
    a.movi(kR0, u32{0x20000});
    a.push(kR0);
    a.movi(kR0, u32{1 | cpu::Psw::kIf});
    a.push(kR0);
    a.movi(kR0, l("after_iret"));
    a.push(kR0);
    a.movi(kR0, u32{0});
    a.push(kR0);
    a.iret();
    a.label("after_iret");
    // Paging on, over the identity page table the test fills in below.
    a.movi(kR0, u32{kPd});
    a.mov_to_cr(cpu::kCr3, kR0);
    a.movi(kR0, u32{cpu::kCr0PgBit});
    a.mov_to_cr(cpu::kCr0, kR0);
    a.movi(cpu::kR5, u32{kPt});
    a.invlpg(cpu::kR5);
    a.ld32(cpu::kR6, cpu::kR5, 0x80);  // shadow-maps the PT frame read-only
    a.label("pt_store");
    a.st32(cpu::kR5, 0x80, cpu::kR6);  // emulated guest page-table write
    a.label("halt");
    a.hlt();
    a.nop();
    VmmRig::emit_idt(a);
  });
  auto& mem = rig.machine.mem();
  mem.write32(kPd, cpu::Pte::make(kPt, true, true));
  for (u32 i = 0; i < 1024; ++i) {
    mem.write32(kPt + 4 * i, cpu::Pte::make(i << cpu::kPageBits, true, true));
  }
  const u32 after_iret = *rig.prog.symbol("after_iret");
  const u32 pt_store = *rig.prog.symbol("pt_store");
  const u32 halt = *rig.prog.symbol("halt");

  StepDelegate dbg(rig.machine);
  rig.mon->set_debug_delegate(&dbg);
  auto& cpu = rig.machine.cpu();
  const std::set<cpu::Opcode> privileged = {
      cpu::Opcode::kLidt,     cpu::Opcode::kCli,       cpu::Opcode::kSti,
      cpu::Opcode::kOut,      cpu::Opcode::kMovToCr,   cpu::Opcode::kMovFromCr,
      cpu::Opcode::kIret,     cpu::Opcode::kInvlpg,    cpu::Opcode::kHlt};
  std::set<cpu::Opcode> covered;
  bool pt_store_covered = false;
  for (int n = 0; n < 100; ++n) {
    const u32 pc0 = cpu.state().pc;
    const u64 icount0 = cpu.stats().instructions;
    u8 bytes[cpu::kInstrBytes];
    mem.read_block(pc0, bytes);  // guest paging is identity throughout
    const cpu::Instr in = cpu::Instr::decode(bytes);

    dbg.stepping = true;
    rig.mon->arm_single_step();
    rig.mon->resume_guest();
    ASSERT_EQ(rig.machine.run_for(1'000'000),
              hw::Machine::StopReason::kExternalStop)
        << "step at 0x" << std::hex << pc0 << " never stopped";
    ASSERT_EQ(dbg.last, vmm::DebugDelegate::StopReason::kStep);

    if (privileged.count(in.op) != 0 || pc0 == pt_store) {
      EXPECT_EQ(cpu.stats().instructions, icount0 + 1)
          << "opcode " << int(in.op) << " at 0x" << std::hex << pc0;
      EXPECT_EQ(cpu.state().pc,
                in.op == cpu::Opcode::kIret ? after_iret
                                            : pc0 + cpu::kInstrBytes)
          << "opcode " << int(in.op) << " at 0x" << std::hex << pc0;
      covered.insert(in.op);
      pt_store_covered = pt_store_covered || pc0 == pt_store;
    }
    if (pc0 == halt) break;
  }
  EXPECT_EQ(covered.size(), privileged.size() + 1);  // + the PT store
  EXPECT_TRUE(pt_store_covered);
  EXPECT_GE(rig.mon->exit_stats().pt_writes, 1u);
  EXPECT_TRUE(rig.mon->vcpu().halted);
}

TEST(LvmmUnit, PhysicalRingMatchesVirtualPrivilege) {
  EXPECT_EQ(vmm::VcpuState::physical_ring(0), cpu::kRing1);
  EXPECT_EQ(vmm::VcpuState::physical_ring(3), cpu::kRing3);
}

}  // namespace
}  // namespace vdbg::test
