// Harness-layer tests: platform construction, experiment measurement
// properties (the invariants behind Fig. 3.1) and report formatting.
#include <gtest/gtest.h>

#include <sstream>

#include "guest/layout.h"
#include "harness/experiment.h"
#include "harness/report.h"

namespace vdbg::test {
namespace {

using namespace harness;

SweepOptions quick() {
  SweepOptions o;
  o.warmup_seconds = 0.03;
  o.measure_seconds = 0.02;
  return o;
}

TEST(Platform, NamesAreStable) {
  EXPECT_EQ(platform_name(fleet::UnitKind::kNative), "real-hardware");
  EXPECT_EQ(platform_name(fleet::UnitKind::kLvmm), "lvmm");
  EXPECT_EQ(platform_name(fleet::UnitKind::kHosted), "vmware-ws4-like");
}

TEST(Platform, PrepareTwiceThrows) {
  fleet::MachineUnit p(fleet::UnitKind::kNative);
  p.prepare(guest::RunConfig());
  EXPECT_THROW(p.prepare(guest::RunConfig()), std::logic_error);
}

TEST(Platform, MonitorPresenceByKind) {
  fleet::MachineUnit n(fleet::UnitKind::kNative);
  n.prepare(guest::RunConfig());
  EXPECT_EQ(n.monitor(), nullptr);
  EXPECT_EQ(n.hosted(), nullptr);

  fleet::MachineUnit l(fleet::UnitKind::kLvmm);
  l.prepare(guest::RunConfig());
  EXPECT_NE(l.monitor(), nullptr);
  EXPECT_EQ(l.hosted(), nullptr);

  fleet::MachineUnit h(fleet::UnitKind::kHosted);
  h.prepare(guest::RunConfig());
  EXPECT_NE(h.monitor(), nullptr);
  EXPECT_NE(h.hosted(), nullptr);
}

TEST(RunConfig, RateHelperConvertsCorrectly) {
  // 80 Mbps = 10 MB/s = 10000 bytes per 1 ms tick.
  EXPECT_EQ(guest::RunConfig::for_rate_mbps(80.0).rate_bytes_per_tick,
            10000u);
}

TEST(RunConfig, ValidationRejectsBadGeometry) {
  cpu::PhysMem mem(1 << 20);
  guest::RunConfig rc;
  rc.segment_bytes = 0;
  EXPECT_THROW(guest::write_run_config(mem, rc), std::invalid_argument);
  rc.segment_bytes = 24;  // not a multiple of 16
  EXPECT_THROW(guest::write_run_config(mem, rc), std::invalid_argument);
  rc.segment_bytes = 1024;
  rc.chunk_bytes = 1500;  // not a multiple of segment
  EXPECT_THROW(guest::write_run_config(mem, rc), std::invalid_argument);
  rc.chunk_bytes = 2048;  // ok: multiple of segment and sector
  guest::write_run_config(mem, rc);
  rc.segment_bytes = 4096;  // exceeds packet buffer with headers
  rc.chunk_bytes = 64 * 1024;
  EXPECT_THROW(guest::write_run_config(mem, rc), std::invalid_argument);
}

TEST(Experiment, MeasurementFieldsPopulated) {
  const auto m = run_point(fleet::UnitKind::kLvmm, 40.0, quick());
  EXPECT_EQ(m.platform, fleet::UnitKind::kLvmm);
  EXPECT_EQ(m.offered_mbps, 40.0);
  EXPECT_GT(m.achieved_mbps, 20.0);
  EXPECT_GT(m.cpu_load, 0.0);
  EXPECT_LT(m.cpu_load, 1.01);
  EXPECT_GT(m.segments_sent, 0u);
  EXPECT_GT(m.vm_exits, 0u);
  EXPECT_TRUE(m.guest_healthy);
  EXPECT_EQ(m.checksum_errors, 0u);
}

TEST(Experiment, LoadIncreasesWithOfferedRate) {
  const auto rows =
      sweep(fleet::UnitKind::kNative, {30.0, 120.0, 360.0}, quick());
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_LT(rows[0].cpu_load, rows[1].cpu_load);
  EXPECT_LT(rows[1].cpu_load, rows[2].cpu_load);
}

TEST(Experiment, SaturationPegsCpu) {
  const auto m = saturation(fleet::UnitKind::kLvmm, quick());
  EXPECT_GT(m.cpu_load, 0.99);
  EXPECT_GT(m.achieved_mbps, 50.0);
  EXPECT_LT(m.achieved_mbps, 500.0);
}

TEST(Report, TableAndCsvContainRows) {
  Measurement m;
  m.platform = fleet::UnitKind::kLvmm;
  m.offered_mbps = 100;
  m.achieved_mbps = 99.5;
  m.cpu_load = 0.5;
  m.segments_sent = 1234;
  std::ostringstream table, csv;
  print_table(table, {m});
  print_csv(csv, {m});
  EXPECT_NE(table.str().find("lvmm"), std::string::npos);
  EXPECT_NE(table.str().find("1234"), std::string::npos);
  EXPECT_NE(csv.str().find("platform,offered_mbps"), std::string::npos);
  EXPECT_NE(csv.str().find("lvmm,100,99.5,0.5,1234"), std::string::npos);
}

}  // namespace
}  // namespace vdbg::test
