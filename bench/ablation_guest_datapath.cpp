// Decomposes the guest's per-byte data-path cost — the denominator of every
// ratio in Fig. 3.1. MiniTactix's send path does (a) one payload copy into
// the packet buffer and (b) a software UDP checksum, like a 2001-era
// BSD-style stack. Run flags peel these off:
//   sw-checksum (default)  copy + software checksum
//   nic-offload            copy only, checksum in NIC hardware
//   zero-copy              neither (descriptor points at prepared buffers)
// The spread shows how much of "real hardware reaches ~700 Mbps at high
// load" is the OS's own byte-touching, independent of any monitor.
#include <cstdio>

#include "guest/layout.h"
#include "harness/experiment.h"

using namespace vdbg;
using namespace vdbg::harness;

int main() {
  SweepOptions opt;
  struct Cfg {
    const char* name;
    u32 flags;
  };
  const Cfg cfgs[] = {
      {"copy + sw checksum (paper-era)", 0},
      {"copy + NIC checksum offload", guest::Mailbox::kFlagOffloadChecksum},
      {"zero-copy + offload",
       guest::Mailbox::kFlagOffloadChecksum | guest::Mailbox::kFlagNoCopy},
  };
  std::printf("=== Native saturated rate vs guest data-path work ===\n");
  std::printf("%-34s %12s %12s\n", "guest data path", "native Mbps",
              "lvmm Mbps");
  double prev_native = 0;
  bool monotone = true;
  for (const auto& c : cfgs) {
    SweepOptions o = opt;
    o.base_run.run_flags = c.flags;
    const auto n = saturation(fleet::UnitKind::kNative, o);
    const auto l = saturation(fleet::UnitKind::kLvmm, o);
    std::printf("%-34s %12.1f %12.1f\n", c.name, n.achieved_mbps,
                l.achieved_mbps);
    if (n.achieved_mbps + 1.0 < prev_native) monotone = false;
    prev_native = n.achieved_mbps;
  }
  std::printf("\nlighter data paths go faster: %s\n", monotone ? "yes" : "NO");
  std::printf("(note: zero-copy ships stale buffer contents; it is a CPU-"
              "cost ablation,\n not a correct transmit path — the sink "
              "rejects nothing because checksums\n are offloaded)\n");
  return monotone ? 0 : 1;
}
