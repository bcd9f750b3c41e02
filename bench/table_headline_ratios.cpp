// Reproduces the paper's Section 3 headline numbers:
//   * "the lightweight virtual machine monitor can transfer data about 5.4
//      times as fast as the VMware Workstation 4", and
//   * "our monitor can transfer data at only about one fourth (26%) of the
//      rate it can be transferred by real hardware".
// Measures the CPU-saturated throughput of each platform and prints the two
// ratios next to the paper's values.
#include <cstdio>

#include "harness/experiment.h"
#include "harness/report.h"

using namespace vdbg;
using namespace vdbg::harness;

int main() {
  SweepOptions opt;
  opt.measure_seconds = 0.08;

  const Measurement native = saturation(fleet::UnitKind::kNative, opt);
  const Measurement lvmm = saturation(fleet::UnitKind::kLvmm, opt);
  const Measurement hosted = saturation(fleet::UnitKind::kHosted, opt);

  std::printf("=== Saturated transfer rates (CPU-bound) ===\n");
  std::printf("%-18s %10s %8s %8s\n", "platform", "Mbps", "load%", "ok");
  for (const auto* m : {&native, &lvmm, &hosted}) {
    std::printf("%-18s %10.1f %8.1f %8s\n",
                std::string(platform_name(m->platform)).c_str(),
                m->achieved_mbps, m->cpu_load * 100.0,
                m->guest_healthy ? "y" : "N");
  }

  const double ratio_vs_hosted = lvmm.achieved_mbps / hosted.achieved_mbps;
  const double frac_of_native = lvmm.achieved_mbps / native.achieved_mbps;

  std::printf("\n=== Headline comparison ===\n");
  std::printf("%-40s %10s %10s\n", "metric", "paper", "measured");
  std::printf("%-40s %10.1f %10.2f\n", "LVMM rate / hosted-VMM rate", 5.4,
              ratio_vs_hosted);
  std::printf("%-40s %9.0f%% %9.1f%%\n", "LVMM rate / real-hardware rate",
              26.0, frac_of_native * 100.0);

  const bool ok = ratio_vs_hosted > 4.0 && ratio_vs_hosted < 7.0 &&
                  frac_of_native > 0.20 && frac_of_native < 0.33;
  std::printf("\nwithin-band: %s\n", ok ? "yes" : "NO");
  return ok ? 0 : 1;
}
