// Event delivery into the guest: injection through the virtual IDT, fault
// reflection, pending-interrupt drain, and IRET emulation. Every frame
// access goes through the GuestMemory layer, so the vIDT gate reads and the
// four-word frame pushes ride the vTLB on the hot interrupt path.
#include "vmm/lvmm.h"

namespace vdbg::vmm {

using cpu::Fault;
using cpu::Psw;

void Lvmm::reflect(const Fault& f, u32 resume_pc) {
  charge(cfg_.costs.reflect_extra);
  ++stats_.reflected_faults;
  trace(TraceKind::kReflect, f.vector, 0, f.errcode);
  if (f.vector == cpu::kVecPf) vcpu_.vcr[cpu::kCr2] = f.cr2;
  inject(f.vector, f.errcode, resume_pc, /*is_soft_int=*/false);
}

void Lvmm::inject(u8 vector, u32 errcode, u32 resume_pc, bool is_soft_int,
                  int depth) {
  charge(cfg_.costs.inject);
  if (depth > 1) {  // triple fault (virtual): guest is gone, monitor is not
    guest_crash();
    return;
  }
  auto double_fault = [&]() {
    inject(cpu::kVecDoubleFault, 0, resume_pc, false, depth + 1);
  };

  if (vector >= vcpu_.vidt_count) {
    double_fault();
    return;
  }
  u32 w0 = 0, w1 = 0;
  if (!guest_read32(vcpu_.vidt_base + u32(vector) * cpu::Gate::kBytes, w0) ||
      !guest_read32(vcpu_.vidt_base + u32(vector) * cpu::Gate::kBytes + 4,
                    w1)) {
    double_fault();
    return;
  }
  const cpu::Gate g = cpu::Gate::unpack(w0, w1);
  if (!g.present || (g.handler & (cpu::kInstrBytes - 1))) {
    double_fault();
    return;
  }
  if (is_soft_int && g.dpl < vcpu_.vcpl) {
    // INT n not allowed from this virtual privilege.
    inject(cpu::kVecGp, vector, resume_pc, false, depth + 1);
    return;
  }
  const u8 target = g.target_ring;  // virtual target ring (0 or 1)
  if (target > vcpu_.vcpl) {
    double_fault();
    return;
  }

  auto& s = st();
  u32 sp = target == vcpu_.vcpl
               ? s.sp()
               : (target == 0 ? vcpu_.vcr[cpu::kCrMonitorSp]
                              : vcpu_.vcr[cpu::kCrKernelSp]);
  // Virtual PSW the guest expects to see in the frame.
  const u32 vpsw = u32(vcpu_.vcpl) | (vcpu_.vif ? Psw::kIf : 0u) |
                   (s.psw & Psw::kFlagsMask);
  const u32 frame[4] = {errcode, resume_pc, vpsw, s.sp()};
  bool ok = true;
  sp -= 16;
  ok = ok && guest_write32(sp + 0, frame[0]);
  ok = ok && guest_write32(sp + 4, frame[1]);
  ok = ok && guest_write32(sp + 8, frame[2]);
  ok = ok && guest_write32(sp + 12, frame[3]);
  if (!ok) {
    double_fault();
    return;
  }

  s.regs[cpu::kSp] = sp;
  s.pc = g.handler;
  vcpu_.vcpl = target;
  vcpu_.vif = false;
  vcpu_.halted = false;
  s.set_cpl(VcpuState::physical_ring(target));
  // TF is cleared on entry as the architecture does — unless the debugger
  // armed a single step, which must survive an interleaved injection (the
  // step then lands on the first handler instruction, GDB-style).
  s.set_tf(debug_ && debug_->wants_step());
  s.set_if(true);  // physical IF is the monitor's
  machine_.cpu().set_halted(false);
  ++stats_.injections;
  trace(TraceKind::kInjection, vector, 0, 0, inject_span_);
}

void Lvmm::emulate_guest_iret() {
  charge(cfg_.costs.iret_emulate);
  auto& s = st();
  const u32 sp = s.sp();
  u32 err = 0, rpc = 0, rpsw = 0, rsp = 0;
  if (!guest_read32(sp, err) || !guest_read32(sp + 4, rpc) ||
      !guest_read32(sp + 8, rpsw) || !guest_read32(sp + 12, rsp)) {
    reflect(Fault::gp(5), s.pc);
    return;
  }
  const u32 new_vcpl = rpsw & Psw::kCplMask;
  if (new_vcpl == 2 || (rpc & (cpu::kInstrBytes - 1))) {
    reflect(Fault::gp(5), s.pc);
    return;
  }
  s.regs[cpu::kSp] = rsp;
  vcpu_.vcpl = static_cast<u8>(new_vcpl);
  vcpu_.vif = rpsw & Psw::kIf;
  s.psw = (rpsw & Psw::kFlagsMask) | VcpuState::physical_ring(vcpu_.vcpl) |
          Psw::kIf;
  retire_emulated(rpc);
  try_inject();
}

// charge:exempt(poll; inject() charges when an injection actually happens)
void Lvmm::try_inject() {
  if (frozen_ || vcpu_.crashed) return;
  if (!vcpu_.vif) return;
  if (!vpic_.intr_asserted()) return;
  const u8 vector = vpic_.acknowledge();
  // Tie the injection to the delivery span opened at arrival, so the trace
  // correlates it and the per-phase latency records the arrival->inject leg.
  const int irq = irq_for_vpic_vector(vector);
  if (irq >= 0 && unsigned(irq) < irq_spans_.size()) {
    inject_span_ = irq_spans_[unsigned(irq)].id;
  }
  inject(vector, 0, st().pc, /*is_soft_int=*/false);
  if (irq >= 0) note_irq_injected(unsigned(irq));
  inject_span_ = 0;
}

}  // namespace vdbg::vmm
