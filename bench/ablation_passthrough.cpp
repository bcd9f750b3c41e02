// Ablation of the paper's central design decision: direct guest access to
// the high-throughput devices. Runs the LVMM with passthrough ON (the
// paper's design) and OFF (every SCSI/NIC access traps and is relayed by
// the monitor — emulation cost only, no hosted host-OS path), and also
// shows the hosted VMM for reference. Quantifies how much of the LVMM's win
// over a conventional VMM comes from the I/O-permission-bitmap passthrough
// alone.
#include <cstdio>

#include "harness/experiment.h"

using namespace vdbg;
using namespace vdbg::harness;

int main() {
  SweepOptions opt;

  SweepOptions no_pass = opt;
  no_pass.platform.lvmm_device_passthrough = false;

  const Measurement with_pt = saturation(fleet::UnitKind::kLvmm, opt);
  const Measurement without_pt = saturation(fleet::UnitKind::kLvmm, no_pass);
  const Measurement hosted = saturation(fleet::UnitKind::kHosted, opt);

  std::printf("=== Ablation: device passthrough (I/O permission bitmap) ===\n");
  std::printf("%-34s %10s %8s %10s\n", "configuration", "sat Mbps", "load%",
              "exits");
  auto row = [](const char* name, const Measurement& m) {
    std::printf("%-34s %10.1f %8.1f %10llu\n", name, m.achieved_mbps,
                m.cpu_load * 100.0, (unsigned long long)m.vm_exits);
  };
  row("lvmm (direct device access)", with_pt);
  row("lvmm, trap-all I/O (no host path)", without_pt);
  row("hosted VMM (trap + host path)", hosted);

  std::printf("\npassthrough speedup over trap-all: %.2fx\n",
              with_pt.achieved_mbps / without_pt.achieved_mbps);
  std::printf("trap-all still beats hosted by:    %.2fx  (host path cost)\n",
              without_pt.achieved_mbps / hosted.achieved_mbps);

  const bool ok = with_pt.achieved_mbps > without_pt.achieved_mbps &&
                  without_pt.achieved_mbps > hosted.achieved_mbps;
  std::printf("ordering with>without>hosted: %s\n", ok ? "yes" : "NO");
  return ok ? 0 : 1;
}
