// Privileged-instruction exits (#GP from ring 1 on a privileged opcode):
// CLI/STI/HLT/IRET/LIDT/CR moves/INVLPG emulated against the virtual CPU
// state. The faulting instruction arrives pre-decoded from the dispatch
// pipeline (lvmm.cpp).
#include "vmm/lvmm.h"

namespace vdbg::vmm {

using cpu::Fault;
using cpu::Instr;
using cpu::Opcode;

void Lvmm::emulate_privileged(const Instr& in) {
  charge(cfg_.costs.instr_emulate);
  ++stats_.privileged_instr;
  trace(TraceKind::kPrivileged, static_cast<u8>(in.op), 0, 0);
  auto& s = st();
  auto reg = [&](u8 r) -> u32& { return s.regs[r & (cpu::kNumGprs - 1)]; };

  switch (in.op) {
    case Opcode::kCli:
      vcpu_.vif = false;
      retire_emulated(s.pc + cpu::kInstrBytes);
      return;
    case Opcode::kSti:
      vcpu_.vif = true;
      retire_emulated(s.pc + cpu::kInstrBytes);
      try_inject();
      return;
    case Opcode::kHlt:
      // Decide the halt before retiring: a step stop can resume the guest
      // (a transparent step-over) and inject from inside retire_emulated.
      if (!vcpu_.vif || !vpic_.intr_asserted()) {
        vcpu_.halted = true;
        machine_.cpu().set_halted(true);
      }
      retire_emulated(s.pc + cpu::kInstrBytes);
      try_inject();
      return;
    case Opcode::kIret:
      emulate_guest_iret();
      return;
    case Opcode::kLidt:
      vcpu_.vidt_base = reg(in.rs1);
      vcpu_.vidt_count = in.imm;
      retire_emulated(s.pc + cpu::kInstrBytes);
      return;
    case Opcode::kMovToCr: {
      const u8 crn = in.rd;
      if (crn >= cpu::kNumCrs) {
        reflect(Fault::ud(), s.pc);
        return;
      }
      vcpu_.vcr[crn] = reg(in.rs1);
      if (crn == cpu::kCr3 || crn == cpu::kCr0) {
        // Architectural TLB-flush point; the listener drops the vTLB too.
        shadow_->flush();
        s.cr[cpu::kCr3] = vcpu_.paging_enabled() ? shadow_->shadow_pd()
                                                 : shadow_->identity_pd();
        machine_.cpu().mmu().flush_tlb();
      }
      retire_emulated(s.pc + cpu::kInstrBytes);
      return;
    }
    case Opcode::kMovFromCr: {
      const u8 crn = in.rs1;
      if (crn >= cpu::kNumCrs) {
        reflect(Fault::ud(), s.pc);
        return;
      }
      reg(in.rd) = vcpu_.vcr[crn];
      retire_emulated(s.pc + cpu::kInstrBytes);
      return;
    }
    case Opcode::kInvlpg:
      shadow_->invlpg(reg(in.rs1));
      machine_.cpu().mmu().invlpg(reg(in.rs1));
      retire_emulated(s.pc + cpu::kInstrBytes);
      return;
    default:
      reflect(Fault::gp(0), s.pc);
      return;
  }
}

}  // namespace vdbg::vmm
