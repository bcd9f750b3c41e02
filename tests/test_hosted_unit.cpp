// Unit-level checks of the hosted full-VMM cost accounting: world switches,
// host syscalls, data copies through host buffers, send-combining batching.
#include <gtest/gtest.h>

#include "common/units.h"
#include "fleet/machine_unit.h"
#include "guest/layout.h"
#include "guest/minitactix.h"
#include "net/udp.h"

namespace vdbg::test {
namespace {

using guest::RunConfig;
using fleet::MachineUnit;
using fleet::UnitKind;
using fleet::UnitOptions;

TEST(HostedUnit, EveryDeviceTouchIsTrappedAndCharged) {
  RunConfig rc = RunConfig::for_rate_mbps(10.0);
  rc.stop_after_segments = 8;
  MachineUnit p(UnitKind::kHosted);
  p.prepare(rc);
  p.machine().run_until_stopped(seconds_to_cycles(3.0));

  auto* h = p.hosted();
  ASSERT_NE(h, nullptr);
  const auto& hs = h->hosted_stats();
  const auto& ex = h->exit_stats();
  // NIC doorbells + ISR accesses + SCSI programming all emulated.
  EXPECT_GT(hs.device_accesses, 8u * 2u);
  // Pre-send-combining behaviour: a world switch per access, plus the
  // interrupt round trips.
  EXPECT_GE(hs.world_switches, hs.device_accesses);
  EXPECT_GT(hs.host_syscalls, 0u);
  EXPECT_GT(hs.host_interrupts, 0u);
  EXPECT_GT(ex.io_emulated, hs.device_accesses - 1);
  EXPECT_EQ(ex.unknown_ports, 0u);
}

TEST(HostedUnit, CopiesCoverPacketsAndDiskPrefetch) {
  RunConfig rc = RunConfig::for_rate_mbps(10.0);
  rc.stop_after_segments = 8;
  MachineUnit p(UnitKind::kHosted);
  p.prepare(rc);
  p.machine().run_until_stopped(seconds_to_cycles(3.0));

  const auto& hs = p.hosted()->hosted_stats();
  // At least the first-wave 2 MiB prefetches (one per disk) went through
  // host buffers before the 8-segment run ended, plus the frames.
  const u64 disk_bytes = 3ull * rc.chunk_bytes;
  const u64 frame_bytes = 8ull * (rc.segment_bytes + net::kAllHeaderBytes + 4);
  EXPECT_GE(hs.bytes_copied, disk_bytes + frame_bytes);
  EXPECT_LE(hs.bytes_copied, 6ull * rc.chunk_bytes + frame_bytes * 4);
}

TEST(HostedUnit, SendCombiningReducesWorldSwitches) {
  auto run = [](bool switch_every_access) {
    RunConfig rc = RunConfig::for_rate_mbps(10.0);
    rc.stop_after_segments = 16;
    UnitOptions opts;
    opts.hosted_costs.switch_on_every_access = switch_every_access;
    MachineUnit p(UnitKind::kHosted, opts);
    p.prepare(rc);
    p.machine().run_until_stopped(seconds_to_cycles(3.0));
    return p.hosted()->hosted_stats().world_switches;
  };
  const u64 per_access = run(true);
  const u64 batched = run(false);
  EXPECT_LT(batched, per_access / 2);
  EXPECT_GT(batched, 0u);
}

TEST(HostedUnit, GuestBehaviourIdenticalDespiteEmulation) {
  // The hosted VMM must be functionally transparent: same segment count,
  // same wire bytes, valid checksums — only slower.
  RunConfig rc = RunConfig::for_rate_mbps(10.0);
  rc.stop_after_segments = 12;
  MachineUnit p(UnitKind::kHosted);
  p.prepare(rc);
  p.sink().set_payload_validator(guest::make_stream_validator(rc));
  const auto stop = p.machine().run_until_stopped(seconds_to_cycles(3.0));
  EXPECT_EQ(stop, hw::Machine::StopReason::kGuestExit);
  p.machine().clear_guest_exit();
  p.machine().run_for(seconds_to_cycles(0.002));
  EXPECT_GE(p.sink().frames(), 12u);
  EXPECT_EQ(p.sink().checksum_errors(), 0u);
  EXPECT_EQ(p.sink().content_errors(), 0u);
  EXPECT_EQ(p.sink().sequence_gaps(), 0u);
  EXPECT_EQ(p.mailbox().last_error, 0u);
}

}  // namespace
}  // namespace vdbg::test
