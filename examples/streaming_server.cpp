// The paper's motivating scenario: a streaming appliance server (the
// HiTactix use case of Le Moal et al., ACM MM'02) pushing paced media
// streams from SCSI disks onto a gigabit network. Runs the same guest at a
// chosen rate on all three platforms and compares CPU load, answering the
// operator's question: "how much debugging headroom does each environment
// leave me at my production bit rate?"
//
// Usage: streaming_server [rate_mbps]   (default 150)
#include <cstdio>
#include <cstdlib>

#include "common/units.h"
#include "guest/layout.h"
#include "guest/minitactix.h"
#include "harness/experiment.h"
#include "harness/report.h"

using namespace vdbg;
using namespace vdbg::harness;

int main(int argc, char** argv) {
  const double rate = argc > 1 ? std::atof(argv[1]) : 150.0;
  if (rate <= 0 || rate > 1000) {
    std::fprintf(stderr, "usage: %s [rate_mbps in (0,1000]]\n", argv[0]);
    return 2;
  }

  // A media stream of ~4 Mbps per client: how many clients is this rate?
  const int clients = static_cast<int>(rate / 4.0);
  std::printf("streaming workload: %.0f Mbps total (~%d MPEG-2 clients), "
              "1 KiB segments from 3 SCSI disks\n\n",
              rate, clients);

  SweepOptions opt;
  std::printf("%-18s %10s %10s %8s %12s\n", "platform", "offered",
              "achieved", "load%", "verdict");
  for (auto kind : {fleet::UnitKind::kNative, fleet::UnitKind::kLvmm,
                    fleet::UnitKind::kHosted}) {
    const auto m = run_point(kind, rate, opt);
    const bool keeps_up = m.achieved_mbps > rate * 0.95;
    const char* verdict = !m.guest_healthy ? "guest sick"
                          : keeps_up       ? "keeps up"
                                           : "SATURATED";
    std::printf("%-18s %10.1f %10.1f %8.1f %12s\n",
                std::string(platform_name(kind)).c_str(), m.offered_mbps,
                m.achieved_mbps, m.cpu_load * 100.0, verdict);
  }

  std::printf(
      "\nReading: the lightweight monitor keeps debuggability at rates a\n"
      "hosted VMM cannot carry at all; native shows the no-debug ceiling.\n");

  // Live operation: send an in-band UDP control request to the appliance
  // (running under the LVMM) and watch the stream re-pace, no restart.
  std::printf("\n--- live rate change over the UDP control channel ---\n");
  fleet::MachineUnit live(fleet::UnitKind::kLvmm);
  live.prepare(guest::RunConfig::for_rate_mbps(rate / 2));
  live.machine().run_for(seconds_to_cycles(0.08));
  live.sink().begin_window(live.machine().now());
  live.machine().run_for(seconds_to_cycles(0.04));
  std::printf("streaming at %.1f Mbps; sending SetRate(%.0f Mbps) request\n",
              live.sink().window_goodput_mbps(live.machine().now()), rate);
  const auto req = guest::build_control_frame(
      guest::kCtrlCmdSetRate,
      guest::RunConfig::for_rate_mbps(rate).rate_bytes_per_tick);
  live.machine().nic().host_rx_frame(req, live.machine().now());
  live.machine().run_for(seconds_to_cycles(0.02));
  live.sink().begin_window(live.machine().now());
  live.machine().run_for(seconds_to_cycles(0.04));
  std::printf("appliance re-paced to %.1f Mbps (requests handled: %u)\n",
              live.sink().window_goodput_mbps(live.machine().now()),
              live.mailbox().ctrl_requests);
  return 0;
}
