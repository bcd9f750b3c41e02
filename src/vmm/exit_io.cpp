// Trapped-port exits: PIC / PIT / UART emulation for the lightweight
// monitor, plus the trap-all relay used by the passthrough ablation. The
// hosted VMM subclass overrides io_emulated_read/io_emulated_write to route
// every device access through its host path.
#include "vmm/lvmm.h"

#include "hw/diag_port.h"
#include "hw/nic.h"
#include "hw/pit.h"
#include "hw/scsi_disk.h"
#include "hw/uart.h"

namespace vdbg::vmm {

using cpu::Instr;
using cpu::Opcode;

void Lvmm::emulate_io(const Instr& in, u16 port) {
  charge(cfg_.costs.instr_emulate + cfg_.costs.device_emulate);
  ++stats_.io_emulated;
  auto& s = st();
  auto reg = [&](u8 r) -> u32& { return s.regs[r & (cpu::kNumGprs - 1)]; };
  if (in.op == Opcode::kIn) {
    trace(TraceKind::kIoRead, 0, port, 0);
    reg(in.rd) = io_emulated_read(port);
  } else {
    trace(TraceKind::kIoWrite, 0, port, reg(in.rs1));
    io_emulated_write(port, reg(in.rs1));
  }
  retire_emulated(s.pc + cpu::kInstrBytes);
  try_inject();
}

void Lvmm::vpic_write(bool slave, u16 offset, u32 value) {
  // Couple guest EOI on the vPIC to physically unmasking the line the
  // monitor parked when it forwarded the interrupt.
  int eoi_irq = -1;
  if (offset == 0) {
    const u8 v = static_cast<u8>(value);
    if ((v & 0xe0) == 0x20) {  // non-specific EOI: highest in-service wins
      const u8 isr = vpic_.isr(slave);
      for (int i = 0; i < 8; ++i) {
        if (isr & (1u << i)) {
          eoi_irq = (slave ? 8 : 0) + i;
          break;
        }
      }
    } else if ((v & 0xe0) == 0x60) {  // specific EOI
      eoi_irq = (slave ? 8 : 0) + (v & 7);
    }
  }
  auto& chip = slave ? vpic_.slave_ports() : vpic_.master_ports();
  chip.io_write(offset, value);
  if (eoi_irq >= 0 && eoi_irq != int(hw::kPicCascadeIrq)) {
    end_irq_span(unsigned(eoi_irq));
    auto it = masked_pending_.find(unsigned(eoi_irq));
    if (it != masked_pending_.end()) {
      masked_pending_.erase(it);
      physical_set_mask(unsigned(eoi_irq), false);
    }
  }
}

// charge:exempt(helper; emulate_io charges io_emulate on entry)
u32 Lvmm::io_emulated_read(u16 port) {
  switch (port) {
    case 0x20:
    case 0x21:
      return vpic_.master_ports().io_read(port - 0x20);
    case 0xa0:
    case 0xa1:
      return vpic_.slave_ports().io_read(port - 0xa0);
    default:
      break;
  }
  if (port >= hw::kPitBase && port < hw::kPitBase + 4) {
    // Timer emulator: forwards to the physical PIT.
    return machine_.router().io_read(port);
  }
  if (port >= hw::kUartBase && port < hw::kUartBase + 8) {
    return 0;  // the monitor owns the UART; the guest sees a dead device
  }
  if (!cfg_.device_passthrough && is_device_class_port(port)) {
    return machine_.router().io_read(port);  // trap-all ablation: relay
  }
  ++stats_.unknown_ports;
  return 0xffffffffu;
}

// charge:exempt(pure classifier; emulate_io charges io_emulate on entry)
bool Lvmm::is_device_class_port(u16 port) const {
  if (port >= hw::kNicBase && port < hw::kNicBase + 0x40) return true;
  const u16 scsi_end = static_cast<u16>(
      hw::kScsiBase0 + machine_.num_disks() * hw::kScsiPortStride);
  if (port >= hw::kScsiBase0 && port < scsi_end) return true;
  if (port >= hw::kDiagBase && port < hw::kDiagBase + hw::kDiagPortCount) {
    return true;
  }
  return false;
}

// charge:exempt(helper; emulate_io charges io_emulate on entry)
void Lvmm::io_emulated_write(u16 port, u32 value) {
  switch (port) {
    case 0x20:
    case 0x21:
      vpic_write(false, port - 0x20, value);
      return;
    case 0xa0:
    case 0xa1:
      vpic_write(true, port - 0xa0, value);
      return;
    default:
      break;
  }
  if (port >= hw::kPitBase && port < hw::kPitBase + 4) {
    machine_.router().io_write(port, value);
    return;
  }
  if (port >= hw::kUartBase && port < hw::kUartBase + 8) {
    return;  // dropped
  }
  if (!cfg_.device_passthrough && is_device_class_port(port)) {
    machine_.router().io_write(port, value);  // trap-all ablation: relay
    return;
  }
  ++stats_.unknown_ports;
}

}  // namespace vdbg::vmm
