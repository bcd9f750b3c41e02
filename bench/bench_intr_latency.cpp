// Interrupt-delivery latency: cycles from the PIT firing to the first
// instruction of the guest's timer ISR reading the cycle counter — the
// number a real-time-OS developer (the paper's audience) checks first when
// a debugging environment sits between the hardware and the kernel.
//
//   native:  PIC -> IDT -> ISR          (hardware delivery)
//   LVMM:    PIC -> monitor -> vPIC -> injection -> ISR
//   hosted:  PIC -> VMM -> host handler -> world switch -> injection -> ISR
//            (and the ISR's TSC read itself traps, as everything does)
//
// Measured both on an idle guest (rate 0: woken from HLT) and under a
// 100 Mbps streaming load (delivery competes with the transfer path).
#include <cstdio>
#include <vector>

#include "common/stats.h"
#include "common/units.h"
#include "fleet/machine_unit.h"
#include "guest/layout.h"
#include "guest/minitactix.h"
#include "harness/report.h"
#include "vmm/lvmm.h"

using namespace vdbg;
using namespace vdbg::harness;

namespace {

struct Lat {
  double p50, p99;
  int samples;
};

Lat measure(fleet::UnitKind kind, double mbps) {
  fleet::MachineUnit p(kind);
  guest::RunConfig rc = guest::RunConfig::for_rate_mbps(mbps);
  rc.run_flags |= guest::Mailbox::kFlagMeasureLatency;
  p.prepare(rc);
  p.machine().run_for(seconds_to_cycles(0.05));  // boot + settle

  Histogram h;
  u32 last_ticks = p.mailbox().ticks;
  int samples = 0;
  while (samples < 150) {
    p.machine().run_for(seconds_to_cycles(0.0005));
    const auto mb = p.mailbox();
    if (mb.ticks == last_ticks) continue;
    last_ticks = mb.ticks;
    // Low-32-bit cycle arithmetic: ISR-entry TSC minus the PIT fire time.
    const u32 fire = static_cast<u32>(p.machine().pit().last_fire_cycles());
    const u32 delta = mb.last_tick_tsc() - fire;
    // Discard samples where we raced a second tick (delta beyond a period).
    if (delta < 1'000'000) {
      h.add(double(delta));
      ++samples;
    }
  }
  return Lat{h.percentile(50), h.percentile(99), samples};
}

}  // namespace

int main() {
  std::printf("=== Timer-interrupt delivery latency (cycles @1.26 GHz) ===\n");
  std::printf("%-18s %-12s %12s %12s\n", "platform", "guest load", "p50",
              "p99");
  struct Row {
    fleet::UnitKind kind;
    double mbps;
  };
  double idle_native = 0, idle_lvmm = 0, idle_hosted = 0;
  for (const Row r : {Row{fleet::UnitKind::kNative, 0.0},
                      Row{fleet::UnitKind::kNative, 100.0},
                      Row{fleet::UnitKind::kLvmm, 0.0},
                      Row{fleet::UnitKind::kLvmm, 100.0},
                      Row{fleet::UnitKind::kHosted, 0.0},
                      Row{fleet::UnitKind::kHosted, 20.0}}) {
    const Lat lat = measure(r.kind, r.mbps);
    std::printf("%-18s %-12s %12.0f %12.0f\n",
                std::string(platform_name(r.kind)).c_str(),
                r.mbps == 0 ? "idle" : "streaming", lat.p50, lat.p99);
    if (r.mbps == 0) {
      if (r.kind == fleet::UnitKind::kNative) idle_native = lat.p50;
      if (r.kind == fleet::UnitKind::kLvmm) idle_lvmm = lat.p50;
      if (r.kind == fleet::UnitKind::kHosted) idle_hosted = lat.p50;
    }
  }
  std::printf("\nvirtualisation tax on delivery (idle p50): lvmm %.1fx, "
              "hosted %.1fx of native\n",
              idle_lvmm / idle_native, idle_hosted / idle_native);
  const bool ok = idle_native < idle_lvmm && idle_lvmm < idle_hosted;
  std::printf("ordering native<lvmm<hosted: %s\n", ok ? "yes" : "NO");

  // Cross-check against the monitor's per-exit-kind accounting: the mean
  // monitor cycles charged per external-interrupt exit (arrival + vPIC +
  // injection walks) is the monitor-side component of the latency above.
  {
    fleet::MachineUnit p(fleet::UnitKind::kLvmm);
    p.prepare(guest::RunConfig::for_rate_mbps(100.0));
    p.machine().run_for(seconds_to_cycles(0.1));
    const auto& irq = p.monitor()->exit_stats().kind(vmm::ExitKind::kInterrupt);
    std::printf("\nlvmm monitor charge per interrupt exit: mean %.0f, "
                "max %llu cycles (%llu exits)\n",
                irq.mean(), (unsigned long long)irq.max_cycles,
                (unsigned long long)irq.count);

    // Span-level breakdown of the same path: each delivery is a correlated
    // span (arrival -> injection -> guest ISR -> EOI), so the latency
    // decomposes into a monitor phase and a guest phase.
    const auto& sp = p.monitor()->irq_span_stats();
    std::printf("\nlvmm delivery span breakdown (%llu completed, "
                "%llu aborted):\n",
                (unsigned long long)sp.completed,
                (unsigned long long)sp.aborted);
    std::printf("  %-18s %10s %10s %12s\n", "phase", "mean", "max", "spans");
    std::printf("  %-18s %10.0f %10llu %12llu\n", "arrival->inject",
                sp.arrival_to_inject.mean(),
                (unsigned long long)sp.arrival_to_inject.max_cycles,
                (unsigned long long)sp.arrival_to_inject.count);
    std::printf("  %-18s %10.0f %10llu %12llu\n", "inject->eoi",
                sp.inject_to_eoi.mean(),
                (unsigned long long)sp.inject_to_eoi.max_cycles,
                (unsigned long long)sp.inject_to_eoi.count);

    // The registry exports the same numbers (vmm.irqspan.*): cross-check
    // that one source of truth feeds both outputs.
    const auto reg_completed = p.metrics().value("vmm.irqspan.completed");
    if (!reg_completed || u64(*reg_completed) != sp.completed) {
      std::printf("registry/span-stats mismatch!\n");
      return 1;
    }
  }
  return ok ? 0 : 1;
}
