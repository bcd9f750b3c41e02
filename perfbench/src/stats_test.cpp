// Tests for perfbench's own statistics: tail-percentile selection, span
// self-time subtraction, and host shares that sum to one.
#include "stats.h"

#include <gtest/gtest.h>

#include <numeric>

namespace perfbench {
namespace {

TEST(Percentile, NearestRank) {
  std::vector<double> v(100);
  std::iota(v.begin(), v.end(), 1.0);  // 1..100, shuffled below
  std::swap(v[3], v[97]);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 50.0);
  EXPECT_DOUBLE_EQ(percentile(v, 99), 99.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 100.0);
  EXPECT_DOUBLE_EQ(percentile({7.0}, 99), 7.0);
  EXPECT_DOUBLE_EQ(percentile({}, 50), 0.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
}

TEST(Percentile, SamplesBeyond) {
  EXPECT_EQ(samples_beyond(1000, 99), 10u);
  EXPECT_EQ(samples_beyond(1000, 99.9), 1u);
  EXPECT_EQ(samples_beyond(100, 90), 10u);
  EXPECT_EQ(samples_beyond(0, 50), 0u);
}

TEST(Percentile, TailLevelIsTheHighestWithTenBeyond) {
  EXPECT_EQ(tail_level(1000), 99.0);   // p99.9 has only 1 beyond
  EXPECT_EQ(tail_level(999), 90.0);    // p99 has 9 beyond
  EXPECT_EQ(tail_level(10000), 99.9);  // exactly 10 beyond
  EXPECT_EQ(tail_level(100), 90.0);
  EXPECT_EQ(tail_level(20), 50.0);
  EXPECT_EQ(tail_level(19), std::nullopt);
  EXPECT_EQ(tail_level(100000), 99.99);
}

TEST(Spans, SelfTimeSubtractsDirectChildrenOnly) {
  // root [0,100) > a [10,60) > b [20,30); root > c [70,90)
  const std::vector<Span> spans = {
      {0, -1, 0, 100}, {1, 0, 10, 60}, {2, 1, 20, 30}, {1, 0, 70, 90}};
  const auto self = self_times(spans);
  EXPECT_EQ(self[0], 100 - 50 - 20);
  EXPECT_EQ(self[1], 50 - 10);
  EXPECT_EQ(self[2], 10);
  EXPECT_EQ(self[3], 20);
  const auto by_name = self_time_by_name(spans);
  EXPECT_EQ(by_name.at(1), 40 + 20);
  // Self times partition the roots' time.
  EXPECT_EQ(std::accumulate(self.begin(), self.end(), std::int64_t{0}), 100);
}

TEST(Shares, LayersPlusResidualSumToOne) {
  // Two windows (roots) with nested layers; the run_for residual is what
  // the wrapped exit and sink spans leave of the run.
  const std::vector<Span> spans = {
      {0, -1, 0, 1000},   // bench.window
      {1, 0, 5, 900},     // hw.run_for
      {2, 1, 100, 400},   // vmm.exit
      {3, 2, 150, 160},   // net.sink inside an exit
      {3, 1, 500, 520},   // net.sink
      {0, -1, 2000, 2500},
      {1, 5, 2000, 2490},
      {2, 6, 2100, 2200}};
  const char* const names[] = {"bench.self", "cpu_hw.residual", "vmm.exit",
                               "net.sink"};
  std::map<std::string, std::int64_t> by_layer;
  for (const auto& [id, ns] : self_time_by_name(spans)) {
    by_layer[names[id]] += ns;
  }
  const auto shares = host_shares(by_layer, 1000 + 500);
  double sum = 0;
  for (const auto& [layer, v] : shares) sum += v;
  EXPECT_DOUBLE_EQ(sum, 1.0);
  EXPECT_DOUBLE_EQ(shares.at("net.sink"), 30.0 / 1500);
  EXPECT_DOUBLE_EQ(shares.at("vmm.exit"), (290.0 + 100) / 1500);
  EXPECT_DOUBLE_EQ(shares.at("cpu_hw.residual"),
                   (895.0 - 300 - 20 + 490 - 100) / 1500);
  EXPECT_TRUE(host_shares({{"x", 5}}, 0).at("x") == 0.0);
}

}  // namespace
}  // namespace perfbench
