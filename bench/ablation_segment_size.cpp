// Segment-size sweep: the paper's workload splits disk reads into fixed
// UDP segments (we default to 1024 B; see DESIGN.md on the "1024KB" typo).
// Per-segment costs (syscall, doorbell, completion interrupt, and under the
// VMMs the corresponding exits) amortise over the payload, so smaller
// segments hurt the monitored platforms far more than native — which is why
// the virtualisation tax depends on the I/O pattern, not just the byte rate.
#include <cstdio>

#include "harness/experiment.h"

using namespace vdbg;
using namespace vdbg::harness;

int main() {
  SweepOptions opt;

  std::printf("=== Saturated rate vs UDP segment size ===\n");
  std::printf("%-10s %14s %14s %14s %12s\n", "seg B", "native Mbps",
              "lvmm Mbps", "hosted Mbps", "lvmm/native");
  bool tax_grows_as_segments_shrink = true;
  double prev_frac = 0.0;
  for (u32 seg : {256u, 512u, 1024u, 1536u}) {
    SweepOptions o = opt;
    o.base_run.segment_bytes = seg;
    o.base_run.chunk_bytes = seg * 1024;  // keep divisibility for all sizes
    const auto n = saturation(fleet::UnitKind::kNative, o);
    const auto l = saturation(fleet::UnitKind::kLvmm, o);
    const auto h = saturation(fleet::UnitKind::kHosted, o);
    const double frac = l.achieved_mbps / n.achieved_mbps;
    std::printf("%-10u %14.1f %14.1f %14.1f %11.1f%%\n", seg,
                n.achieved_mbps, l.achieved_mbps, h.achieved_mbps,
                frac * 100.0);
    if (frac + 1e-9 < prev_frac) tax_grows_as_segments_shrink = false;
    prev_frac = frac;
  }
  std::printf("\nlvmm/native fraction grows with segment size: %s\n",
              tax_grows_as_segments_shrink ? "yes" : "NO");
  return tax_grows_as_segments_shrink ? 0 : 1;
}
