// The lightweight virtual machine monitor — the paper's contribution.
//
// The monitor installs itself as the CPU's trap hook (the simulation
// equivalent of owning the real IDT from ring 0) and de-privileges the guest
// kernel to ring 1. It emulates ONLY what the debugging functions need:
//   * the interrupt controller (virtual 8259 pair; the physical PIC is the
//     monitor's),
//   * the timer (forwarded to the physical PIT),
//   * privileged CPU state (CLI/STI/HLT/IRET/LIDT/CR*/INVLPG),
//   * the page/interrupt tables (shadow paging + virtual IDT).
// High-throughput devices — the SCSI controllers and the NIC — stay OPEN in
// the I/O permission bitmap: the guest drives them directly, which is the
// paper's performance argument.
//
// VM exits flow through a structured dispatch pipeline (DESIGN.md, "Monitor
// hot path"): on_event classifies the exit once — decoding the faulting
// instruction at most once per exit — then dispatches to a per-kind handler
// and records the exit's cycle cost in VmExitStats. The handlers live in
// per-kind source files: exit_priv.cpp (privileged instructions),
// exit_io.cpp (trapped ports), exit_pf.cpp (shadow paging + watchpoints),
// exit_inject.cpp (vIDT injection, reflection, IRET).
//
// Guest memory is accessed through the GuestMemory layer (guest_mem.h),
// which caches guest-VA translations in a vTLB invalidated via the
// ShadowMmu's TranslationListener hooks.
//
// Monitor work is charged simulated cycles from LvmmCosts; all counters are
// exposed for the benchmark harness.
#pragma once

#include <array>
#include <functional>
#include <memory>
#include <set>
#include <vector>

#include "common/metrics.h"
#include "cpu/cpu.h"
#include "hw/machine.h"
#include "hw/pic.h"
#include "vmm/costs.h"
#include "vmm/guest_mem.h"
#include "vmm/shadow_mmu.h"
#include "vmm/trace.h"
#include "vmm/vcpu.h"

namespace vdbg::vmm {

/// Debugger-facing callbacks. The RSP stub implements this; a monitor with
/// no delegate reflects breakpoints to the guest and reports crashes only
/// via VcpuState::crashed.
class DebugDelegate {
 public:
  virtual ~DebugDelegate() = default;
  enum class StopReason : u8 { kBreakpoint, kStep, kCrash, kWatchpoint };
  /// True when the #BP at `pc` belongs to a debugger breakpoint (as opposed
  /// to a BRK the guest executes on its own).
  virtual bool owns_breakpoint(VAddr pc) = 0;
  /// True when the stub armed a single step and wants the next #DB.
  virtual bool wants_step() = 0;
  /// The guest has been frozen; reason tells why.
  virtual void on_guest_stop(StopReason reason) = 0;
  /// A byte/interrupt arrived on the monitor's communication device.
  virtual void on_uart_activity() = 0;
};

class Lvmm : public cpu::TrapHook {
 public:
  struct Config {
    LvmmCosts costs = LvmmCosts::defaults();
    PAddr monitor_base = 0;
    u32 monitor_len = 0;
    u32 guest_mem_limit = 0;
    /// The paper's key design choice. True (default): SCSI/NIC/diag ports
    /// are open in the I/O bitmap and the guest drives the devices
    /// directly. False (ablation): those ports trap and the monitor relays
    /// each access — emulation cost without the hosted VMM's host path.
    bool device_passthrough = true;
  };

  Lvmm(hw::Machine& machine, const Config& cfg);
  ~Lvmm() override;

  /// Takes over the machine: trap hook, I/O bitmap (passthrough for
  /// SCSI/NIC/diag, traps for PIC/PIT/UART), DMA protection of the monitor
  /// region, physical PIC programming, identity paging, guest entry at
  /// ring 1. Call once, after Machine::load.
  void install();

  // --- cpu::TrapHook ---
  void on_event(cpu::Cpu& cpu, const cpu::Fault& fault) override;
  void on_external_interrupt(cpu::Cpu& cpu, u8 vector) override;

  // --- state access ---
  VcpuState& vcpu() { return vcpu_; }
  const VcpuState& vcpu() const { return vcpu_; }
  ShadowMmu& shadow() { return *shadow_; }
  const VmExitStats& exit_stats() const { return stats_; }

  /// Aggregate per-phase latencies of interrupt-delivery spans (arrival ->
  /// vIDT injection, injection -> guest EOI at the vPIC). Snapshot-saved,
  /// so a time-travel replay reproduces them bit-identically; powers the
  /// per-phase breakdown in bench_intr_latency.
  struct IrqSpanStats {
    u64 begun = 0;
    u64 completed = 0;
    u64 aborted = 0;  // a new arrival found a span still open on the line
    ExitKindStats arrival_to_inject;  // phase-latency record (reused shape)
    ExitKindStats inject_to_eoi;
  };
  const IrqSpanStats& irq_span_stats() const { return span_stats_; }
  hw::Pic& vpic() { return vpic_; }
  hw::Machine& machine() { return machine_; }
  const Config& config() const { return cfg_; }

  // --- guest memory (through the guest's own translation, vTLB-cached) ---
  GuestMemory& guest_mem() { return *gmem_; }
  const GuestMemory& guest_mem() const { return *gmem_; }
  bool guest_va_to_pa(VAddr va, bool write, PAddr& pa) const {
    return gmem_->translate(va, write, pa);
  }
  bool guest_read(VAddr va, std::span<u8> out) const {
    return gmem_->read(va, out);
  }
  bool guest_write(VAddr va, std::span<const u8> in) {
    return gmem_->write(va, in);
  }
  bool guest_read32(VAddr va, u32& value) const {
    return gmem_->read32(va, value);
  }
  bool guest_write32(VAddr va, u32 value) { return gmem_->write32(va, value); }

  // --- debugger support ---
  void set_debug_delegate(DebugDelegate* d) {
    debug_ = d;
    // Undo the no-delegate storm guard (see forward_external_interrupt):
    // with a stub attached the line is serviced again.
    if (d != nullptr) physical_set_mask(hw::kUartIrq, false);
  }
  DebugDelegate* debug_delegate() const { return debug_; }
  /// Freezes/unfreezes guest execution (devices and simulated time go on).
  void freeze_guest(DebugDelegate::StopReason reason);
  void resume_guest();
  bool guest_frozen() const { return frozen_; }
  /// Arms a hardware single step of the guest (physical TF).
  void arm_single_step();
  /// Cancels an armed single step that will never be reported.
  void disarm_single_step();

  // --- data watchpoints (write), built on shadow paging ---
  /// Watches guest-virtual [va, va+len). Requires guest paging enabled
  /// (MiniTactix enables it at boot); returns false otherwise.
  bool add_watchpoint(VAddr va, u32 len);
  bool remove_watchpoint(VAddr va, u32 len);
  struct WatchHit {
    VAddr va = 0;   // first watched byte touched
    u32 value = 0;  // value stored
    unsigned size = 0;
    u32 pc = 0;     // pc of the store (already advanced past it)
  };
  const WatchHit& last_watch_hit() const { return watch_hit_; }
  std::size_t watchpoint_count() const { return watches_.size(); }
  /// Snapshot of the active watch ranges, for reconciliation after a
  /// time-travel restore (the restored set reflects checkpoint time).
  std::vector<std::pair<VAddr, u32>> watchpoint_list() const;

  /// Raw guest-byte access for host-side bookkeeping (breakpoint-patch
  /// reconciliation after a snapshot restore): translates through the
  /// guest's own tables but charges no cycles and touches no vTLB or
  /// walk counters, so using it never perturbs a replay's timeline.
  /// Permissions are ignored (a debugger patches read-only text).
  bool guest_peek_raw(VAddr va, u8& out) const;
  bool guest_poke_raw(VAddr va, u8 value);

  /// True while the monitor's private memory is uncorrupted (canary page).
  bool monitor_memory_intact() const;

  /// Charges monitor cycles (also used by the stub).
  void charge(Cycles c);

  /// Attaches a VM-exit tracer (enable via ExitTracer::set_enabled).
  /// Recording charges LvmmCosts::trace_per_event per event.
  void set_tracer(ExitTracer* tracer) { tracer_ = tracer; }
  ExitTracer* tracer() const { return tracer_; }

  /// Host-side observer fired whenever the guest freezes (after the debug
  /// delegate). The FlightRecorder uses it to auto-capture on crashes and
  /// watchpoint hits; it is host wiring, never snapshot state.
  void set_stop_observer(std::function<void(DebugDelegate::StopReason)> fn) {
    stop_observer_ = std::move(fn);
  }

  /// Registers the monitor's counters with a metrics registry: vmm.exit.*,
  /// per-kind vmm.exit_<kind>.*, vmm.vtlb.*, vmm.irqspan.*, vmm.vpic.* and
  /// vmm.trace.*. The registered slots are the live stats members, so the
  /// registry must not outlive the monitor.
  void register_metrics(MetricsRegistry& reg);

  // --- snapshot support ---
  /// Serialises monitor state on top of Machine::save: vCPU, exit stats,
  /// virtual PIC, pending-masked IRQ set, watchpoints, freeze flag, shadow
  /// bookkeeping and the vTLB. The snapshot must be restored onto an
  /// installed monitor with the same configuration (the frame layout is
  /// fixed at construction). The debug delegate and tracer are host wiring
  /// and are untouched.
  void save(SnapshotWriter& w) const;
  bool restore(SnapshotReader& r);

 protected:
  // Trapped-port emulation; the hosted VMM subclass extends the port set.
  virtual u32 io_emulated_read(u16 port);
  virtual void io_emulated_write(u16 port, u32 value);
  /// Extra arrival cost hook (hosted VMM charges the host-OS path).
  virtual void on_device_interrupt_forwarded(unsigned irq) { (void)irq; }
  /// I/O bitmap policy; the hosted VMM denies everything.
  virtual void configure_io_bitmap();

  cpu::Cpu& cpu() { return machine_.cpu(); }
  cpu::CpuState& st() { return machine_.cpu().state(); }

  hw::Machine& machine_;
  Config cfg_;  // snap:skip(install-time config; restore needs an equal one)
  VcpuState vcpu_;
  VmExitStats stats_;

 private:
  /// One VM exit flowing through the dispatch pipeline: the raising fault,
  /// its classified kind, and the faulting instruction — decoded at most
  /// once per exit and shared by every handler that needs it.
  struct ExitContext {
    const cpu::Fault& fault;
    ExitKind kind = ExitKind::kOther;
    cpu::Instr instr{};
    bool have_instr = false;
  };
  /// A faulting store decoded for emulation (PT writes, watchpoints).
  struct StoreInfo {
    unsigned size = 0;
    u32 value = 0;
    VAddr ea = 0;
  };

  // Dispatch pipeline (lvmm.cpp).
  void classify_exit(ExitContext& ctx);
  void dispatch_exit(ExitContext& ctx);
  void forward_external_interrupt(u8 vector);

  // Per-kind handlers (exit_priv.cpp / exit_io.cpp / exit_pf.cpp /
  // exit_inject.cpp).
  void emulate_privileged(const cpu::Instr& in);
  void emulate_io(const cpu::Instr& in, u16 port);
  void emulate_guest_iret();
  void handle_page_fault(ExitContext& ctx);
  void handle_pt_write(PAddr target_pa, const StoreInfo& store);
  void handle_watch_write(const cpu::Fault& f, const StoreInfo& store);
  bool decode_faulting_store(ExitContext& ctx, StoreInfo& out);
  void sync_watch_pages();
  /// Completes an emulated guest instruction: moves pc to `next_pc` and,
  /// when the debugger is single-stepping, ends the step there. The
  /// emulated instruction is the whole step, so the stop lands on the next
  /// instruction with exactly one instruction retired (KVM's
  /// kvm_skip_emulated_instruction pattern).
  void retire_emulated(u32 next_pc);

  /// Injects an event through the guest's virtual IDT. `resume_pc` is the
  /// return address pushed in the frame.
  void inject(u8 vector, u32 errcode, u32 resume_pc, bool is_soft_int,
              int depth = 0);
  void reflect(const cpu::Fault& f, u32 resume_pc);
  void try_inject();
  void guest_crash();

  bool is_device_class_port(u16 port) const;
  void physical_pic_init();
  void physical_pic_write(bool slave, u16 offset, u8 value);
  void physical_eoi(unsigned irq);
  void physical_set_mask(unsigned irq, bool masked);
  /// vPIC port handling with physical-unmask-on-guest-EOI coupling.
  void vpic_write(bool slave, u16 offset, u32 value);

  bool fetch_guest_instr(cpu::Instr& out);
  void trace(TraceKind kind, u8 vector, u16 detail, u32 extra, u32 span = 0,
             SpanPhase phase = SpanPhase::kInstant);

  // Interrupt-delivery span bookkeeping (lvmm.cpp). Span ids are allocated
  // by the monitor (not the host tracer) so a replay reproduces them.
  void begin_irq_span(unsigned irq, u8 vector);
  void note_irq_injected(unsigned irq);
  void end_irq_span(unsigned irq);
  /// IRQ line a vector acknowledged from the vPIC belongs to, or -1.
  int irq_for_vpic_vector(u8 vector) const;

  std::unique_ptr<ShadowMmu> shadow_;
  std::unique_ptr<GuestMemory> gmem_;
  hw::Pic vpic_;
  std::set<unsigned> masked_pending_;
  DebugDelegate* debug_ = nullptr;   // snap:skip(host debugger wiring)
  ExitTracer* tracer_ = nullptr;     // snap:skip(host tracer wiring)
  struct WatchRange {
    VAddr va;
    u32 len;
  };
  std::vector<WatchRange> watches_;
  WatchHit watch_hit_{};
  bool frozen_ = false;

  /// One in-flight delivery span per IRQ line.
  struct IrqSpan {
    u32 id = 0;  // 0 = no span open on this line
    Cycles arrival = 0;
    Cycles injected = 0;
    bool injected_seen = false;
  };
  std::array<IrqSpan, 16> irq_spans_{};
  u32 next_span_id_ = 1;
  IrqSpanStats span_stats_;
  u32 inject_span_ = 0;  // snap:skip(transient within one exit dispatch)
  // snap:skip(host observer wiring)
  std::function<void(DebugDelegate::StopReason)> stop_observer_;
  bool installed_ = false;  // snap:skip(restore requires an installed monitor)
};

}  // namespace vdbg::vmm
