// Reproduces Figure 3.1 of the paper: CPU load versus UDP transfer rate for
// the HiTactix-style guest on (a) real (simulated) hardware, (b) the
// lightweight virtual machine monitor, and (c) the hosted full VMM
// (VMware Workstation 4 baseline), sweeping the offered rate 0..700 Mbps.
//
// The paper's qualitative shape to verify:
//   * real hardware carries 700 Mbps below full load,
//   * the LVMM saturates around a quarter of the native rate,
//   * the hosted VMM saturates at a few tens of Mbps,
//   * below saturation, load grows roughly linearly with rate, with the
//     three slopes ordered native < LVMM < hosted.
//
// Prints the plotted series as a table and as CSV (for replotting).
#include <iostream>
#include <vector>

#include "harness/experiment.h"
#include "harness/report.h"

using namespace vdbg;
using namespace vdbg::harness;

int main() {
  SweepOptions opt;
  const std::vector<double> rates = {25,  50,  100, 150, 200, 250, 300, 350,
                                     400, 450, 500, 550, 600, 650, 700};

  std::vector<Measurement> all;
  for (auto kind : {fleet::UnitKind::kNative, fleet::UnitKind::kLvmm,
                    fleet::UnitKind::kHosted}) {
    std::cout << "# sweeping " << platform_name(kind) << " ..." << std::endl;
    auto rows = sweep(kind, rates, opt);
    all.insert(all.end(), rows.begin(), rows.end());
  }

  std::cout << "\n=== Fig. 3.1: measured CPU load vs transfer rate ===\n";
  print_table(std::cout, all);
  std::cout << "\n--- CSV ---\n";
  print_csv(std::cout, all);

  // Quick shape check mirrored from the paper's curves.
  auto at = [&](fleet::UnitKind k, double rate) -> const Measurement& {
    for (const auto& m : all) {
      if (m.platform == k && m.offered_mbps == rate) return m;
    }
    static Measurement none;
    return none;
  };
  const bool native_carries_700 =
      at(fleet::UnitKind::kNative, 700).achieved_mbps > 650.0;
  const bool ordering =
      at(fleet::UnitKind::kNative, 100).cpu_load <
          at(fleet::UnitKind::kLvmm, 100).cpu_load &&
      at(fleet::UnitKind::kLvmm, 100).cpu_load <
          at(fleet::UnitKind::kHosted, 100).cpu_load;
  std::cout << "\nshape-check: native carries 700 Mbps: "
            << (native_carries_700 ? "yes" : "NO")
            << "; load ordering native<lvmm<hosted at 100 Mbps: "
            << (ordering ? "yes" : "NO") << "\n";
  return (native_carries_700 && ordering) ? 0 : 1;
}
