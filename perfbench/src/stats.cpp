#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

namespace {

// Rank (1-based) of the nearest-rank percentile p among n samples.
std::size_t nearest_rank(std::size_t n, double p) {
  const double r = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  return std::clamp<std::size_t>(static_cast<std::size_t>(std::max(r, 1.0)),
                                 1, n);
}

}  // namespace

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  const std::size_t k = nearest_rank(samples.size(), p) - 1;
  std::nth_element(samples.begin(), samples.begin() + k, samples.end());
  return samples[k];
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 ? samples[n / 2] : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

std::size_t samples_beyond(std::size_t n, double p) {
  if (n == 0) return 0;
  return n - nearest_rank(n, p);
}

std::optional<double> tail_level(std::size_t n, std::size_t min_beyond) {
  for (double p : {99.99, 99.9, 99.0, 90.0, 50.0}) {
    if (samples_beyond(n, p) >= min_beyond) return p;
  }
  return std::nullopt;
}

std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].end_ns - spans[i].start_ns;
  }
  for (const Span& s : spans) {
    if (s.parent >= 0) self[s.parent] -= s.end_ns - s.start_ns;
  }
  return self;
}

std::map<std::uint32_t, std::int64_t> self_time_by_name(
    const std::vector<Span>& spans) {
  const std::vector<std::int64_t> self = self_times(spans);
  std::map<std::uint32_t, std::int64_t> out;
  for (std::size_t i = 0; i < spans.size(); ++i) out[spans[i].name] += self[i];
  return out;
}

std::map<std::string, double> host_shares(
    const std::map<std::string, std::int64_t>& self_ns, std::int64_t total_ns) {
  std::map<std::string, double> out;
  for (const auto& [layer, ns] : self_ns) {
    out[layer] = total_ns > 0 ? double(ns) / double(total_ns) : 0.0;
  }
  return out;
}

}  // namespace perfbench
