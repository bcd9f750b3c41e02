// Flight-recorder walkthrough: boot the guest under the lightweight
// monitor with tracing on, let a planted wild-pointer bug triple-fault it,
// and write the post-mortem bundle — a JSON summary plus a Chrome
// trace-event (catapult) JSON of the trace tail, loadable in Perfetto.
//
// Usage: flight_dump_demo [out_dir]
//
// Prints "summary=<path>" and "trace=<path>" on success; CI's
// check_trace_json.py --run drives this binary and validates the trace.
#include <cstdio>

#include "common/units.h"
#include "fleet/machine_unit.h"
#include "guest/layout.h"
#include "guest/minitactix.h"
#include "vmm/flight_recorder.h"
#include "vmm/trace.h"

using namespace vdbg;

namespace {

/// Wrecks the guest's IDT so the next interrupt finds no usable gates and
/// the kernel virtual-triple-faults (see crash_resilience.cpp for the
/// full wild-pointer story; here the collateral damage is enough).
void corrupt_idt(fleet::MachineUnit& p) {
  const u32 idt = p.image().kernel.symbol("idt").value();
  for (u32 i = 0; i < guest::kIdtEntries * 8; i += 4) {
    p.machine().mem().write32(idt + i, 0x00dead00);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_dir = argc > 1 ? argv[1] : ".";

  fleet::MachineUnit p(fleet::UnitKind::kLvmm);
  p.prepare(guest::RunConfig::for_rate_mbps(60.0));

  vmm::ExitTracer tracer(4096);
  tracer.set_enabled(true);
  p.monitor()->set_tracer(&tracer);

  vmm::FlightRecorder::Config fc;
  fc.out_dir = out_dir;
  fc.file_prefix = "flight-demo";
  fc.dump_on_crash = false;  // capture in memory; we write explicitly below
  vmm::FlightRecorder fr(*p.monitor(), fc);
  fr.set_metrics(&p.metrics());
  fr.arm();

  p.machine().run_for(seconds_to_cycles(0.02));  // healthy streaming
  corrupt_idt(p);
  p.machine().run_for(seconds_to_cycles(0.03));  // next tick detonates

  if (!p.monitor()->vcpu().crashed || fr.captures() == 0) {
    std::printf("flight_dump_demo: guest did not crash as planned\n");
    return 1;
  }

  std::string summary, trace;
  if (!fr.dump("demo-post-mortem", &summary, &trace)) {
    std::printf("flight_dump_demo: cannot write to %s\n", out_dir.c_str());
    return 1;
  }
  std::printf("guest crashed; monitor intact: %s\n",
              p.monitor()->monitor_memory_intact() ? "yes" : "NO");
  std::printf("summary=%s\n", summary.c_str());
  std::printf("trace=%s\n", trace.c_str());
  std::printf("open the trace file in https://ui.perfetto.dev to see the\n"
              "interrupt-delivery spans and the crash instant.\n");
  return 0;
}
