// Sensitivity of the hosted-VMM baseline to the world-switch cost — the
// axis Sugerman et al. (USENIX'01) identify as dominant in VMware's hosted
// I/O architecture, and the reason the paper's lightweight monitor avoids
// the host path entirely. Sweeps the modelled world-switch cycle cost and
// reports the saturated rate; also toggles "send combining"-style batching
// (world switch per doorbell instead of per register access).
#include <cstdio>

#include "common/units.h"
#include "fleet/machine_unit.h"
#include "guest/minitactix.h"
#include "harness/experiment.h"
#include "vmm/lvmm.h"

using namespace vdbg;
using namespace vdbg::harness;

namespace {

/// Mean monitor cycles per VM exit for a streaming LVMM run, with the
/// guest-memory translation cache enabled or disabled — the lightweight
/// analogue of the hosted world-switch axis: how much of the per-exit tax
/// the monitor's own memory accesses account for.
double lvmm_cycles_per_exit(bool vtlb) {
  fleet::MachineUnit p(fleet::UnitKind::kLvmm);
  p.prepare(guest::RunConfig::for_rate_mbps(40.0));
  p.monitor()->guest_mem().set_translation_cache_enabled(vtlb);
  p.machine().run_for(seconds_to_cycles(0.1));
  const auto& ex = p.monitor()->exit_stats();
  return ex.total ? double(ex.charged_cycles) / double(ex.total) : 0.0;
}

}  // namespace

int main() {
  SweepOptions opt;

  std::printf("=== Hosted VMM: world-switch cost sensitivity ===\n");
  std::printf("%-14s %-22s %10s %8s\n", "switch cyc", "switch policy",
              "sat Mbps", "load%");
  double prev = 1e9;
  bool monotonic = true;
  for (Cycles ws : {Cycles{5000}, Cycles{10000}, Cycles{20000}, Cycles{25800},
                    Cycles{40000}}) {
    SweepOptions o = opt;
    o.platform.hosted_costs.world_switch = ws;
    const auto m = saturation(fleet::UnitKind::kHosted, o);
    std::printf("%-14llu %-22s %10.1f %8.1f\n", (unsigned long long)ws,
                "per register access", m.achieved_mbps, m.cpu_load * 100.0);
    if (m.achieved_mbps > prev + 0.5) monotonic = false;
    prev = m.achieved_mbps;
  }

  // "Send combining": batch the world switch per doorbell, the optimisation
  // Sugerman et al. describe.
  SweepOptions batched = opt;
  batched.platform.hosted_costs.switch_on_every_access = false;
  const auto mb = saturation(fleet::UnitKind::kHosted, batched);
  std::printf("%-14llu %-22s %10.1f %8.1f\n",
              (unsigned long long)batched.platform.hosted_costs.world_switch,
              "per doorbell (batched)", mb.achieved_mbps, mb.cpu_load * 100.0);

  const auto base = saturation(fleet::UnitKind::kHosted, opt);
  std::printf("\nsend-combining speedup: %.2fx\n",
              mb.achieved_mbps / base.achieved_mbps);
  std::printf("rate monotonically falls with switch cost: %s\n",
              monotonic ? "yes" : "NO");

  // The LVMM-side analogue: its "world" never leaves the monitor, so the
  // comparable axis is the monitor's own guest-memory walk cost. The vTLB
  // caches those walks; disabling it shows what each exit would cost if
  // every monitor access re-walked the guest page tables.
  std::printf("\n=== LVMM: guest-walk cost per exit (vTLB ablation) ===\n");
  const double with_vtlb = lvmm_cycles_per_exit(true);
  const double without_vtlb = lvmm_cycles_per_exit(false);
  const double reduction = (without_vtlb - with_vtlb) / without_vtlb * 100.0;
  std::printf("%-24s %12.1f cycles/exit\n", "vTLB enabled", with_vtlb);
  std::printf("%-24s %12.1f cycles/exit\n", "vTLB disabled", without_vtlb);
  std::printf("translation-cache reduction: %.1f%%\n", reduction);
  const bool vtlb_ok = reduction >= 20.0;
  std::printf("reduction >= 20%%: %s\n", vtlb_ok ? "yes" : "NO");

  return monotonic && mb.achieved_mbps > base.achieved_mbps && vtlb_ok ? 0 : 1;
}
