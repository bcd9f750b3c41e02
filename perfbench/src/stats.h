// Statistics perfbench reports: order statistics over latency
// samples, self time over a tree of trace spans, and per-layer host-time
// shares. Pure functions over plain data so perfbench_stats_test can pin
// them down without running a simulation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile (p in (0, 100]) of an unsorted sample set.
/// Returns 0 for an empty set.
double percentile(std::vector<double> samples, double p);

double median(std::vector<double> samples);

/// Samples strictly above the nearest-rank position of percentile p among
/// n samples: n - ceil(p / 100 * n).
std::size_t samples_beyond(std::size_t n, double p);

/// The highest of the reported tail levels (99.99, 99.9, 99, 90, 50) that
/// still has at least `min_beyond` samples above it, or nullopt when even
/// the median has fewer.
std::optional<double> tail_level(std::size_t n, std::size_t min_beyond = 10);

/// One recorded host-time interval. `parent` indexes the enclosing span in
/// the same vector (-1 for a root); `name` indexes a caller-owned table.
struct Span {
  std::uint32_t name = 0;
  std::int32_t parent = -1;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Self time of every span: its duration minus the durations of its direct
/// children. Children are assumed to nest inside their parent's interval
/// (the recorder only ever opens a child while the parent is open).
std::vector<std::int64_t> self_times(const std::vector<Span>& spans);

/// Self time summed per span name.
std::map<std::uint32_t, std::int64_t> self_time_by_name(
    const std::vector<Span>& spans);

/// Host-time shares per layer. `self_ns` maps a layer to its summed self
/// time; every span is attributed to exactly one layer, so over a traced
/// window the shares sum to 1. `total_ns` is the window's duration.
std::map<std::string, double> host_shares(
    const std::map<std::string, std::int64_t>& self_ns, std::int64_t total_ns);

}  // namespace perfbench
