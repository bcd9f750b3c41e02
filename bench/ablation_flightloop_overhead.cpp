// Cost of the always-on flight loop — continuous capture (checkpoint ring
// + trace-ring tail + metrics time series + PC sampling profiler) armed on
// a machine running saturated I/O.
//
// Two legs at saturated throughput:
//   off   registry attached, tracer off, no flight loop  (production VMM)
//   on    registry attached, tracer on, flight loop armed (full capture)
//
// Gate: the whole capture stack must cost <2% on simulated cycles per VM
// exit. By construction the only simulated charge is the tracer's own
// per-event cost (the checkpoints, series and profiler are host-side
// observers); this bench keeps that invariant honest.
//
// `--json` emits a google-benchmark-shaped document whose nested "metrics"
// object is the registry snapshot of the `on` leg, so check_bench.py can
// floor vmm.flight.* activity alongside the overhead gate.
#include <cstdio>
#include <cstring>

#include "common/units.h"
#include "fleet/machine_unit.h"
#include "guest/minitactix.h"
#include "vmm/flight_loop.h"
#include "vmm/trace.h"

using namespace vdbg;

namespace {

struct Res {
  double mbps;
  u64 exits;
  double cycles_per_exit;  // simulated monitor charge per VM exit
  u64 checkpoints;
  u64 samples;
  std::string metrics_json;
};

Res run(bool flight) {
  fleet::MachineUnit p(fleet::UnitKind::kLvmm);
  p.prepare(guest::RunConfig::for_rate_mbps(2000.0));  // saturate
  p.metrics().set_enabled(false);  // attached but disabled: no export

  vmm::ExitTracer tracer(4096);
  std::unique_ptr<vmm::FlightLoop> fl;
  if (flight) {
    tracer.set_enabled(true);
    p.monitor()->set_tracer(&tracer);
    vmm::FlightLoop::Config cfg;  // defaults: 50k interval, ring 8, 10k PC
    fl = std::make_unique<vmm::FlightLoop>(*p.monitor(), cfg);
    fl->set_metrics(&p.metrics());
    fl->register_metrics(p.metrics());
    fl->arm();
  }

  p.machine().run_for(seconds_to_cycles(0.15));
  p.sink().begin_window(p.machine().now());
  p.machine().run_for(seconds_to_cycles(0.05));
  const auto& st = p.monitor()->exit_stats();
  p.metrics().set_enabled(true);  // export is allowed once the run is over
  return Res{p.sink().window_goodput_mbps(p.machine().now()),
             st.total,
             st.total ? double(st.charged_cycles) / double(st.total) : 0.0,
             fl ? fl->stats().checkpoints : 0,
             p.machine().cpu().profiler().samples(),
             flight ? p.metrics().to_json() : "{}"};
}

}  // namespace

int main(int argc, char** argv) {
  const bool json = argc > 1 && std::strcmp(argv[1], "--json") == 0;

  const Res off = run(false);
  const Res on = run(true);

  const double overhead_pct =
      off.cycles_per_exit > 0
          ? (on.cycles_per_exit / off.cycles_per_exit - 1.0) * 100.0
          : 0.0;
  const double goodput_cost_pct = (1.0 - on.mbps / off.mbps) * 100.0;
  const bool overhead_ok = overhead_pct < 2.0 && overhead_pct > -2.0;
  const bool captured_ok = on.checkpoints > 0 && on.samples > 0;

  if (json) {
    std::printf(
        "{\"benchmarks\":[{\"name\":\"AblationFlightloopOverhead\","
        "\"sat_mbps_off\":%.3f,\"sat_mbps_on\":%.3f,"
        "\"cycles_per_exit_off\":%.3f,\"cycles_per_exit_on\":%.3f,"
        "\"flightloop_overhead_pct\":%.4f,\"goodput_cost_pct\":%.4f,"
        "\"metrics\":%s}]}\n",
        off.mbps, on.mbps, off.cycles_per_exit, on.cycles_per_exit,
        overhead_pct, goodput_cost_pct, on.metrics_json.c_str());
    return overhead_ok && captured_ok ? 0 : 1;
  }

  std::printf("=== Always-on flight loop at LVMM saturation ===\n");
  std::printf("%-16s %12s %10s %14s %12s %10s\n", "config", "sat Mbps",
              "exits", "cyc/exit", "checkpoints", "samples");
  auto row = [](const char* name, const Res& r) {
    std::printf("%-16s %12.1f %10llu %14.1f %12llu %10llu\n", name, r.mbps,
                (unsigned long long)r.exits, r.cycles_per_exit,
                (unsigned long long)r.checkpoints,
                (unsigned long long)r.samples);
  };
  row("off", off);
  row("flight loop", on);
  std::printf("\nflight-loop overhead on cycles/exit: %.2f%%\n",
              overhead_pct);
  std::printf("goodput cost of continuous capture:  %.2f%%\n",
              goodput_cost_pct);
  std::printf("overhead stays under 2%%: %s\n", overhead_ok ? "yes" : "NO");
  std::printf("capture actually ran:    %s\n", captured_ok ? "yes" : "NO");
  return overhead_ok && captured_ok ? 0 : 1;
}
