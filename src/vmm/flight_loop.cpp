#include "vmm/flight_loop.h"

#include <algorithm>

namespace vdbg::vmm {

void FlightLoop::arm() {
  if (armed()) return;
  history_.arm(cfg_.interval, hw::Machine::HookPhase::kObserve,
               [this](u64 ic) { on_boundary(ic); });
  if (cfg_.profile_interval != 0) {
    machine().cpu().profiler().configure(cfg_.profile_interval, icount());
  }
}

void FlightLoop::on_boundary(u64 ic) {
  if (frozen_) return;
  // A verify replay re-crosses boundaries already in the ring; the state
  // there is bit-identical by determinism, so skip the re-capture (and the
  // duplicate series point).
  const auto& ring = history_.ring();
  if (!ring.empty() && ic <= ring.back().icount) return;

  // Always delta: the ring holds several captures of one steadily-mutating
  // machine, the exact workload COW sharing exists for.
  history_.store(history_.capture());
  const ExitTracer* tracer = mon_.tracer();
  trace_cursors_.push_back(tracer ? tracer->recorded() : 0);
  ++stats_.checkpoints;

  SeriesRing::Point pt;
  pt.icount = ic;
  pt.cycles = machine().now();
  if (metrics_) pt.samples = metrics_->snapshot();
  series_.push(std::move(pt));
  ++stats_.series_points;

  evict();
}

void FlightLoop::evict() {
  // Keep the checkpoint and trace windows aligned: once the tracer has
  // overwritten part of a checkpoint's tail, that checkpoint can no longer
  // anchor a bit-exact replay window, so it goes too.
  const ExitTracer* tracer = mon_.tracer();
  auto overwritten = [&] {
    return tracer != nullptr && trace_cursors_.size() > 1 &&
           tracer->recorded() - trace_cursors_.front() > tracer->capacity();
  };
  while (trace_cursors_.size() > cfg_.ring || overwritten()) {
    history_.evict_oldest();
    trace_cursors_.pop_front();
    ++stats_.evictions;
  }
}

FlightLoop::Window FlightLoop::window() const {
  Window w;
  const auto& ring = history_.ring();
  if (ring.empty()) return w;
  w.begin_icount = ring.front().icount;
  w.begin_cycles = ring.front().cycles;
  w.end_icount = icount();
  w.end_cycles = machine().now();
  w.checkpoints = ring.size();
  if (const ExitTracer* tracer = mon_.tracer()) {
    const u64 since = tracer->recorded() - trace_cursors_.front();
    w.trace_events = static_cast<std::size_t>(
        std::min<u64>(since, tracer->capacity()));
  }
  return w;
}

u64 FlightLoop::replayable_instructions() const {
  const auto& ring = history_.ring();
  return ring.empty() ? 0 : icount() - ring.front().icount;
}

bool FlightLoop::verify_window(std::string* error) {
  auto fail = [&](std::string why) {
    ++stats_.verify_failures;
    if (error) *error = std::move(why);
    return false;
  };
  ++stats_.verifies;
  if (trace_cursors_.empty()) return fail("no checkpoints in the ring");
  const ExitTracer* tracer = mon_.tracer();
  if (tracer == nullptr) return fail("no tracer attached");

  const u64 origin = icount();
  const u64 have = tracer->recorded() - trace_cursors_.front();
  // Events beyond the tracer's capacity were overwritten since the last
  // capture boundary (evict() keeps that gap to at most one partial
  // interval); the element-wise proof covers the surviving tail, while the
  // event-count check below still covers the full window.
  const auto cmp = static_cast<std::size_t>(
      std::min<u64>(have, tracer->capacity()));
  const auto recorded_tail = tracer->tail(cmp);
  const u64 recorded_before = tracer->recorded();

  if (!history_.restore(history_.ring().front())) {
    return fail("checkpoint restore failed");
  }
  ++stats_.replays;
  const auto r = history_.replay_to(origin);
  if (icount() != origin) {
    return fail("replay stopped short at icount " + std::to_string(icount()) +
                " (reason " + std::to_string(static_cast<int>(r)) + ")");
  }

  const u64 replayed_n = tracer->recorded() - recorded_before;
  if (replayed_n != have) {
    return fail("replay recorded " + std::to_string(replayed_n) +
                " events, expected " + std::to_string(have));
  }
  const auto replayed_tail = tracer->tail(cmp);
  for (std::size_t i = 0; i < recorded_tail.size(); ++i) {
    if (recorded_tail[i] == replayed_tail[i]) continue;
    return fail("trace divergence at window event " + std::to_string(i));
  }

  // The replayed copy of the window is now the tracer's newest content;
  // re-anchor every checkpoint's cursor onto it so windows keep counting
  // from events that are actually in the ring.
  for (u64& c : trace_cursors_) c += replayed_n;
  return true;
}

void FlightLoop::register_metrics(MetricsRegistry& reg) {
  reg.add_counter("vmm.flight.checkpoints", &stats_.checkpoints,
                  /*replay_exact=*/false);
  reg.add_counter("vmm.flight.evictions", &stats_.evictions,
                  /*replay_exact=*/false);
  reg.add_counter("vmm.flight.series_points", &stats_.series_points,
                  /*replay_exact=*/false);
  reg.add_counter("vmm.flight.replays", &stats_.replays,
                  /*replay_exact=*/false);
  reg.add_counter("vmm.flight.verifies", &stats_.verifies,
                  /*replay_exact=*/false);
  reg.add_counter("vmm.flight.verify_failures", &stats_.verify_failures,
                  /*replay_exact=*/false);
  reg.add_gauge(
      "vmm.flight.ring_depth",
      [this] { return double(trace_cursors_.size()); },
      /*replay_exact=*/false);
  reg.add_gauge(
      "vmm.flight.window_instructions",
      [this] { return double(replayable_instructions()); },
      /*replay_exact=*/false);
}

}  // namespace vdbg::vmm
