#include "harness/experiment.h"

#include "common/units.h"
#include "guest/layout.h"

namespace vdbg::harness {

Measurement run_point(fleet::UnitKind kind, double offered_mbps,
                      const SweepOptions& opt) {
  fleet::MachineUnit p(kind, opt.platform);
  guest::RunConfig rc = opt.base_run;
  rc.rate_bytes_per_tick =
      static_cast<u32>(offered_mbps * 1e6 / 8.0 / 1000.0);
  p.prepare(rc);

  Measurement m;
  m.platform = kind;
  m.offered_mbps = offered_mbps;

  p.machine().run_for(seconds_to_cycles(opt.warmup_seconds));

  const auto mb0 = p.mailbox();
  const auto exits0 = p.monitor() ? p.monitor()->exit_stats().total : 0;
  const auto inj0 = p.monitor() ? p.monitor()->exit_stats().injections : 0;
  const auto probe = p.machine().begin_load_probe();
  p.sink().begin_window(p.machine().now());

  p.machine().run_for(seconds_to_cycles(opt.measure_seconds));

  const auto mb = p.mailbox();
  m.achieved_mbps = p.sink().window_goodput_mbps(p.machine().now());
  m.cpu_load = p.machine().cpu_load(probe);
  m.segments_sent = mb.segments_sent - mb0.segments_sent;
  m.underruns = mb.underruns - mb0.underruns;
  m.ring_full = mb.ring_full - mb0.ring_full;
  if (p.monitor()) {
    m.vm_exits = p.monitor()->exit_stats().total - exits0;
    m.injections = p.monitor()->exit_stats().injections - inj0;
  }
  m.checksum_errors = p.sink().checksum_errors();
  m.sequence_gaps = p.sink().sequence_gaps();
  m.guest_healthy = mb.magic == guest::Mailbox::kMagicValue &&
                    mb.last_error == 0 &&
                    !(p.monitor() && p.monitor()->vcpu().crashed);
  return m;
}

std::vector<Measurement> sweep(fleet::UnitKind kind,
                               const std::vector<double>& offered_mbps,
                               const SweepOptions& opt) {
  std::vector<Measurement> out;
  out.reserve(offered_mbps.size());
  for (double r : offered_mbps) out.push_back(run_point(kind, r, opt));
  return out;
}

Measurement saturation(fleet::UnitKind kind, const SweepOptions& opt,
                       double offered_mbps) {
  return run_point(kind, offered_mbps, opt);
}

}  // namespace vdbg::harness
