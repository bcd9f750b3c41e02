// One fully self-contained simulated machine: the target, its monitor (when
// any), the RSP debug stub, a private MetricsRegistry and optional flight
// recorder / flight loop. Experiments, examples and tests run one directly;
// a fleet owns M of them with zero shared mutable state.
//
// Ownership rule (DESIGN.md §10): every pointer a MachineUnit hands out
// points into state the unit itself owns. Two units never share an object,
// so any number of them can run on different host threads with no locking
// inside the simulation. The only process-wide state a run touches is the
// log sink, which is thread-safe and machine-tagged (common/log.h).
#pragma once

#include <memory>
#include <string>
#include <string_view>

#include "common/metrics.h"
#include "fullvmm/hosted_vmm.h"
#include "guest/minitactix.h"
#include "hw/machine.h"
#include "net/packet_sink.h"
#include "vmm/flight_loop.h"
#include "vmm/flight_recorder.h"
#include "vmm/lvmm.h"
#include "vmm/stub.h"
#include "vmm/trace.h"

namespace vdbg::fleet {

/// The three systems of the paper's evaluation (see harness::platform_name
/// for the paper-facing names).
enum class UnitKind : u8 { kNative, kLvmm, kHosted };

std::string_view unit_kind_name(UnitKind k);

struct UnitOptions {
  hw::MachineConfig machine{};
  guest::BuildConfig build{};
  vmm::LvmmCosts lvmm_costs = vmm::LvmmCosts::defaults();
  fullvmm::HostedCosts hosted_costs = fullvmm::HostedCosts::defaults();
  /// Ablation knob: disable the LVMM's device passthrough (trap-all I/O).
  bool lvmm_device_passthrough = true;
  /// Ablation knob: skip metrics registration entirely — the "no registry"
  /// leg of ablation_trace_overhead.
  bool metrics_registration = true;
  /// When set, the unit copies this prebuilt image instead of assembling
  /// its own — a fleet builds the guest once and stamps out M machines.
  /// The pointee is only read during construction.
  const guest::GuestImage* prebuilt_image = nullptr;
};

class MachineUnit {
 public:
  explicit MachineUnit(UnitKind kind, const UnitOptions& opts = {},
                       int id = 0);

  /// Loads the guest, writes the run configuration, installs the monitor
  /// (when any) and wires the NIC to the sink. Must be called exactly once
  /// before running. Two environment hooks arm observers on monitor-carrying
  /// units here: VDBG_FLIGHT_DIR (CI post-mortem bundles) arms a flight
  /// recorder writing into that directory, and VDBG_FLIGHT_LOOP (any
  /// non-empty value; a decimal number overrides the checkpoint interval)
  /// arms the flight loop.
  void prepare(const guest::RunConfig& rc);
  bool prepared() const { return prepared_; }

  UnitKind kind() const { return kind_; }
  /// Machine id within a fleet (0 for a solo unit); used for log tagging
  /// and the fleet.machine<id>.* rollup prefix.
  int id() const { return id_; }
  hw::Machine& machine() { return *machine_; }
  net::PacketSink& sink() { return sink_; }
  /// Monitor, when the unit has one (kLvmm and kHosted); else nullptr.
  vmm::Lvmm* monitor() { return monitor_.get(); }
  fullvmm::HostedVmm* hosted() {
    return kind_ == UnitKind::kHosted
               ? static_cast<fullvmm::HostedVmm*>(monitor_.get())
               : nullptr;
  }
  const guest::GuestImage& image() const { return image_; }
  const guest::RunConfig& run_config() const { return rc_; }

  guest::MailboxStats mailbox() const {
    return guest::read_mailbox(machine_->mem());
  }

  /// Every machine/monitor counter under one roof, populated by prepare().
  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }

  /// Constructs and attaches the RSP debug stub on the machine's UART.
  /// Idempotent; requires a monitor (returns nullptr for kNative). Attach
  /// happens through guest-visible UART register writes, so do it before
  /// running (and identically on every machine you intend to compare).
  vmm::DebugStub* attach_stub();
  vmm::DebugStub* stub() { return stub_.get(); }

  /// Arms a FlightRecorder writing into `dir` (creates the tracer and the
  /// recorder on first call; later calls return the existing one). Used by
  /// the VDBG_FLIGHT_DIR hook in prepare() and by the fleet health monitor
  /// when it quarantines a sick machine. Returns nullptr when the unit has
  /// no monitor.
  vmm::FlightRecorder* arm_flight_recorder(const std::string& dir,
                                           const std::string& file_prefix);
  vmm::FlightRecorder* flight_recorder() { return flight_.get(); }

  /// Arms the continuous flight loop (creates the tracer on first call,
  /// like arm_flight_recorder) and registers its vmm.flight.* and
  /// fleet.series.* counters. Idempotent; nullptr when the unit has no
  /// monitor. Arm before running — the hook installation must happen on
  /// every machine you intend to compare, at the same position.
  vmm::FlightLoop* arm_flight_loop(const vmm::FlightLoop::Config& cfg);
  vmm::FlightLoop* flight_loop() { return flight_loop_.get(); }

 private:
  /// Attaches the unit's own exit tracer unless the monitor has one.
  void ensure_tracer();

  // thread:init-only(written by the ctor / prepare / attach_stub before the
  // unit is handed to a worker; afterwards the owning worker reads freely)
  UnitKind kind_;       // thread:init-only(see above)
  UnitOptions opts_;    // thread:init-only(see above)
  int id_;              // thread:init-only(see above)
  std::unique_ptr<hw::Machine> machine_;   // thread:init-only(see above)
  std::unique_ptr<vmm::Lvmm> monitor_;     // thread:init-only(see above)
  MetricsRegistry metrics_;                // thread:init-only(registered once; counters mutate behind pointers the owning worker drives)
  std::unique_ptr<vmm::DebugStub> stub_;   // thread:init-only(see above)
  // Armed mid-run through the slot.mu arm_requested handoff, so not
  // init-only: arm_flight_recorder is a thread:handoff function.
  std::unique_ptr<vmm::ExitTracer> flight_tracer_;
  std::unique_ptr<vmm::FlightRecorder> flight_;
  // Armed at init time (fleet ctor / prepare); the capture hook
  // then runs on the owning worker. thread:init-only(see above)
  std::unique_ptr<vmm::FlightLoop> flight_loop_;
  guest::GuestImage image_;  // thread:init-only(see above)
  guest::RunConfig rc_;      // thread:init-only(see above)
  net::PacketSink sink_;     // owning worker only (NIC wire callback)
  bool prepared_ = false;    // thread:init-only(see above)
};

}  // namespace vdbg::fleet
