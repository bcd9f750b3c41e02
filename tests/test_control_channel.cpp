// End-to-end tests of the UDP control channel: the streaming appliance
// accepts in-band requests (rate changes, marks) over the NIC receive path
// while transmitting — on all three platforms.
#include <gtest/gtest.h>

#include "common/units.h"
#include "fleet/machine_unit.h"
#include "guest/layout.h"
#include "guest/minitactix.h"

namespace vdbg::test {
namespace {

using guest::RunConfig;
using fleet::MachineUnit;
using fleet::UnitKind;

double measure_rate(MachineUnit& p, double seconds) {
  p.sink().begin_window(p.machine().now());
  p.machine().run_for(seconds_to_cycles(seconds));
  return p.sink().window_goodput_mbps(p.machine().now());
}

void rate_change_scenario(UnitKind kind) {
  MachineUnit p(kind);
  p.prepare(RunConfig::for_rate_mbps(30.0));
  p.machine().run_for(seconds_to_cycles(0.06));  // boot + settle

  const double before = measure_rate(p, 0.03);
  EXPECT_NEAR(before, 30.0, 6.0);

  // In-band request: 80 Mbps = 10000 data bytes per tick.
  const auto frame = guest::build_control_frame(guest::kCtrlCmdSetRate, 10000);
  ASSERT_TRUE(p.machine().nic().host_rx_frame(frame, p.machine().now()));
  p.machine().run_for(seconds_to_cycles(0.02));  // absorb + re-pace

  const double after = measure_rate(p, 0.03);
  EXPECT_NEAR(after, 80.0, 12.0);

  const auto mb = p.mailbox();
  EXPECT_EQ(mb.ctrl_requests, 1u);
  EXPECT_EQ(mb.last_ctrl_cmd, guest::kCtrlCmdSetRate);
  EXPECT_EQ(mb.last_ctrl_arg, 10000u);
  EXPECT_EQ(mb.last_error, 0u);
}

TEST(ControlChannel, RateChangeTakesEffectNative) {
  rate_change_scenario(UnitKind::kNative);
}

TEST(ControlChannel, RateChangeTakesEffectUnderLvmm) {
  rate_change_scenario(UnitKind::kLvmm);
}

TEST(ControlChannel, RateChangeTakesEffectUnderHostedVmm) {
  MachineUnit p(UnitKind::kHosted);
  p.prepare(RunConfig::for_rate_mbps(10.0));
  p.machine().run_for(seconds_to_cycles(0.15));
  const auto frame = guest::build_control_frame(guest::kCtrlCmdSetRate, 2500);
  ASSERT_TRUE(p.machine().nic().host_rx_frame(frame, p.machine().now()));
  p.machine().run_for(seconds_to_cycles(0.05));
  const auto mb = p.mailbox();
  EXPECT_EQ(mb.ctrl_requests, 1u);
  EXPECT_EQ(mb.last_ctrl_arg, 2500u);
}

TEST(ControlChannel, MarkCommandRecordsWithoutSideEffects) {
  MachineUnit p(UnitKind::kLvmm);
  p.prepare(RunConfig::for_rate_mbps(30.0));
  p.machine().run_for(seconds_to_cycles(0.06));
  const u32 rate_before = p.mailbox().ticks;  // just progress proof
  const auto frame =
      guest::build_control_frame(guest::kCtrlCmdMark, 0xfeed0001);
  ASSERT_TRUE(p.machine().nic().host_rx_frame(frame, p.machine().now()));
  p.machine().run_for(seconds_to_cycles(0.02));
  const auto mb = p.mailbox();
  EXPECT_EQ(mb.last_ctrl_cmd, guest::kCtrlCmdMark);
  EXPECT_EQ(mb.last_ctrl_arg, 0xfeed0001u);
  EXPECT_GT(mb.ticks, rate_before);
  // The pacing rate is untouched (still 30 Mbps worth per tick).
  EXPECT_EQ(p.machine().mem().read32(guest::kMailboxBase +
                                     guest::Mailbox::kRateBytesPerTick),
            RunConfig::for_rate_mbps(30.0).rate_bytes_per_tick);
}

TEST(ControlChannel, BadMagicIgnoredStreamUnaffected) {
  RunConfig rc = RunConfig::for_rate_mbps(30.0);
  MachineUnit p(UnitKind::kLvmm);
  p.prepare(rc);
  p.sink().set_payload_validator(guest::make_stream_validator(rc));
  p.machine().run_for(seconds_to_cycles(0.06));

  auto frame = guest::build_control_frame(guest::kCtrlCmdSetRate, 1);
  frame[44] ^= 0xff;  // corrupt the magic
  ASSERT_TRUE(p.machine().nic().host_rx_frame(frame, p.machine().now()));
  p.machine().run_for(seconds_to_cycles(0.03));

  const auto mb = p.mailbox();
  EXPECT_EQ(mb.ctrl_requests, 0u);  // rejected
  EXPECT_GT(mb.segments_sent, 0u);  // stream alive at the original rate
  EXPECT_EQ(p.sink().content_errors(), 0u);
  EXPECT_EQ(mb.last_error, 0u);
}

TEST(ControlChannel, BurstOfRequestsAllProcessed) {
  MachineUnit p(UnitKind::kLvmm);
  p.prepare(RunConfig::for_rate_mbps(30.0));
  p.machine().run_for(seconds_to_cycles(0.06));
  for (u32 i = 0; i < 8; ++i) {
    const auto f = guest::build_control_frame(guest::kCtrlCmdMark, 100 + i);
    ASSERT_TRUE(p.machine().nic().host_rx_frame(f, p.machine().now()));
  }
  p.machine().run_for(seconds_to_cycles(0.02));
  const auto mb = p.mailbox();
  EXPECT_EQ(mb.ctrl_requests, 8u);
  EXPECT_EQ(mb.last_ctrl_arg, 107u);
  // Descriptors were recycled: more requests still land.
  for (u32 i = 0; i < 8; ++i) {
    const auto f = guest::build_control_frame(guest::kCtrlCmdMark, 200 + i);
    ASSERT_TRUE(p.machine().nic().host_rx_frame(f, p.machine().now()));
    p.machine().run_for(seconds_to_cycles(0.001));
  }
  p.machine().run_for(seconds_to_cycles(0.01));
  EXPECT_EQ(p.mailbox().ctrl_requests, 16u);
}

}  // namespace
}  // namespace vdbg::test
