// Copy-on-write physical memory tests: frame sharing between a machine and
// its captures, write isolation across forked siblings, delta-capture
// accounting (fresh pages = dirtied since the previous capture), and the
// TimeTravel property the multiverse rests on — a delta checkpoint restores
// to state byte-identical with a full self-contained snapshot.
#include <gtest/gtest.h>

#include "common/metrics.h"
#include "common/units.h"
#include "cpu/phys_mem.h"
#include "fleet/machine_unit.h"
#include "guest/minitactix.h"
#include "vmm/time_travel.h"

namespace vdbg::test {
namespace {

using cpu::CowPages;
using cpu::kPageSize;
using cpu::PhysMem;
using guest::RunConfig;
using fleet::MachineUnit;
using fleet::UnitKind;
using vmm::TimeTravel;
using MStop = hw::Machine::StopReason;

constexpr u32 kMemBytes = 1024 * 1024;

// --------------------------------------------------------- frame sharing --

TEST(CowPhysMem, CaptureIsSparseAndZeroPagesStayFree) {
  PhysMem m(kMemBytes);
  EXPECT_EQ(m.nonzero_pages(), 0u);

  const CowPages empty = m.capture_cow();
  EXPECT_EQ(empty.resident_pages(), 0u);
  EXPECT_EQ(empty.fresh_pages(), 0u);
  EXPECT_EQ(empty.retained_bytes(), 0u);

  m.write32(5 * kPageSize + 16, 0x11223344);
  m.write32(9 * kPageSize, 0x55667788);
  const CowPages two = m.capture_cow();
  EXPECT_EQ(two.resident_pages(), 2u);
  EXPECT_EQ(two.fresh_pages(), 2u);
  EXPECT_GE(two.retained_bytes(), 2u * kPageSize);

  u64 zero = 0, shared = 0, owned = 0;
  m.cow_census(&zero, &shared, &owned);
  EXPECT_EQ(shared, 2u);  // both resident frames now shared with the capture
  EXPECT_EQ(owned, 0u);
  EXPECT_EQ(zero, (kMemBytes / kPageSize) - 2);
}

TEST(CowPhysMem, ForkedSiblingsWriteTheSamePageWithoutInterference) {
  PhysMem parent(kMemBytes);
  const u32 addr = 7 * kPageSize + 128;
  parent.write32(addr, 0xa11ce);
  const CowPages snap = parent.capture_cow();

  PhysMem sibling(kMemBytes);
  ASSERT_TRUE(sibling.adopt_cow(snap));
  EXPECT_EQ(sibling.read32(addr), 0xa11ceu);

  // Both timelines dirty the SAME page; each must fault onto a private
  // frame and neither may see the other's write.
  parent.write32(addr, 0xfacade);
  sibling.write32(addr, 0xdecade);
  EXPECT_EQ(parent.read32(addr), 0xfacadeu);
  EXPECT_EQ(sibling.read32(addr), 0xdecadeu);
  EXPECT_GE(parent.cow_faults() + sibling.cow_faults(), 2u);

  // A third adopter of the original capture still reads the original
  // contents: the shared frame itself was never written through.
  PhysMem witness(kMemBytes);
  ASSERT_TRUE(witness.adopt_cow(snap));
  EXPECT_EQ(witness.read32(addr), 0xa11ceu);
}

TEST(CowPhysMem, AdoptRollsBackContentsAndVersionsTogether) {
  PhysMem m(kMemBytes);
  const u32 page = 3;
  const u32 addr = page * kPageSize;
  m.write32(addr, 1);
  m.write32(addr, 2);
  const u64 v_at_capture = m.page_version(page);
  const CowPages snap = m.capture_cow();

  m.write32(addr, 3);
  EXPECT_GT(m.page_version(page), v_at_capture);

  ASSERT_TRUE(m.adopt_cow(snap));
  EXPECT_EQ(m.read32(addr), 2u);
  EXPECT_EQ(m.page_version(page), v_at_capture)
      << "versions must roll back with the contents so a replayed run "
         "re-increments them identically";
}

TEST(CowPhysMem, SelfAdoptionIsSafe) {
  PhysMem m(kMemBytes);
  m.write32(0x4000, 0xbeef);
  const CowPages snap = m.capture_cow();
  ASSERT_TRUE(m.adopt_cow(snap));
  EXPECT_EQ(m.read32(0x4000), 0xbeefu);

  // Size mismatch is refused and leaves the target untouched.
  PhysMem other(kMemBytes * 2);
  other.write32(0x4000, 7);
  EXPECT_FALSE(other.adopt_cow(snap));
  EXPECT_EQ(other.read32(0x4000), 7u);
}

TEST(CowPhysMem, FreshPagesCountOnlyPagesDirtiedSinceTheLastCapture) {
  PhysMem m(kMemBytes);
  for (u32 p = 0; p < 8; ++p) m.write32(p * kPageSize, p + 1);
  const CowPages base = m.capture_cow();
  EXPECT_EQ(base.fresh_pages(), 8u);

  // Dirty exactly one page: the next capture retains one new frame and
  // shares the other seven with `base`.
  m.write32(2 * kPageSize, 0x99);
  const CowPages delta = m.capture_cow();
  EXPECT_EQ(delta.resident_pages(), 8u);
  EXPECT_EQ(delta.fresh_pages(), 1u);
  EXPECT_LT(delta.retained_bytes(), base.retained_bytes());
  EXPECT_GE(delta.retained_bytes(), u64{kPageSize});
}

TEST(CowPhysMem, MetricsRegisterUnderMemCow) {
  PhysMem m(kMemBytes);
  MetricsRegistry reg;
  m.register_metrics(reg);
  bool saw_faults = false;
  for (const auto& s : reg.snapshot()) {
    if (s.name == "mem.cow.faults") {
      saw_faults = true;
      EXPECT_FALSE(s.replay_exact) << "COW activity is host-side";
    }
    EXPECT_EQ(s.name.rfind("mem.cow.", 0), 0u);
  }
  EXPECT_TRUE(saw_faults);
}

// ------------------------------------------------- delta checkpoint ring --

std::unique_ptr<MachineUnit> make_lvmm() {
  auto p = std::make_unique<MachineUnit>(UnitKind::kLvmm);
  p->prepare(RunConfig::for_rate_mbps(40.0));
  return p;
}

// The headline property: restoring a delta (COW) checkpoint lands on state
// byte-identical to a full self-contained snapshot taken at the same
// boundary.
TEST(CowCheckpoint, DeltaRestoreIsByteIdenticalToFullSnapshot) {
  auto p = make_lvmm();
  auto& m = p->machine();
  TimeTravel::Config cfg;
  cfg.cow_delta = true;
  TimeTravel tt(*p->monitor(), cfg);

  ASSERT_EQ(m.run_for(seconds_to_cycles(0.01)), MStop::kBudget);
  ASSERT_TRUE(tt.checkpoint_now());
  const auto full = tt.save_state();  // always a full stream
  ASSERT_FALSE(full.empty());

  // The delta stream itself must be much smaller than the full one (it
  // externalises memory), while restoring to identical state.
  const auto& cp = tt.checkpoints().back();
  EXPECT_GT(cp.mem.resident_pages(), 0u);
  EXPECT_LT(cp.bytes.size(), full.size() / 4);

  // Run past the boundary, then restore through the fork path the
  // multiverse uses (adopt the COW table, then replay the external-memory
  // stream over it).
  ASSERT_EQ(m.run_for(seconds_to_cycles(0.005)), MStop::kBudget);
  ASSERT_TRUE(TimeTravel::restore_checkpoint_into(m, p->monitor(), cp));
  EXPECT_EQ(tt.save_state(), full)
      << "delta checkpoint restored to different state than a full snapshot";
}

// Consecutive delta checkpoints only pay for pages dirtied in between.
TEST(CowCheckpoint, ConsecutiveCheckpointsStoreOnlyTheDelta) {
  auto p = make_lvmm();
  auto& m = p->machine();
  TimeTravel::Config cfg;
  cfg.cow_delta = true;
  TimeTravel tt(*p->monitor(), cfg);

  ASSERT_EQ(m.run_for(seconds_to_cycles(0.02)), MStop::kBudget);
  ASSERT_TRUE(tt.checkpoint_now());
  const auto& first = tt.checkpoints().back();
  const u64 first_cost = first.stored_bytes;
  ASSERT_GT(first.mem.fresh_pages(), 0u);

  // A short run dirties far fewer pages than the whole boot did.
  ASSERT_EQ(m.run_for(seconds_to_cycles(0.001)), MStop::kBudget);
  ASSERT_TRUE(tt.checkpoint_now());
  const auto& second = tt.checkpoints().back();
  EXPECT_LT(second.mem.fresh_pages(), first.mem.fresh_pages());
  EXPECT_LT(second.stored_bytes, first_cost / 2)
      << "second delta checkpoint should cost a fraction of the first";
  EXPECT_GE(second.mem.resident_pages(), first.mem.resident_pages());
  EXPECT_GE(tt.stats().cow_fresh_pages,
            first.mem.fresh_pages() + second.mem.fresh_pages());
}

// Full (non-delta) mode still produces self-contained checkpoints and the
// two modes restore to the same machine state.
TEST(CowCheckpoint, FullModeCheckpointsRemainSelfContained) {
  auto p = make_lvmm();
  auto& m = p->machine();
  TimeTravel::Config cfg;
  cfg.cow_delta = false;
  TimeTravel tt(*p->monitor(), cfg);

  ASSERT_EQ(m.run_for(seconds_to_cycles(0.01)), MStop::kBudget);
  ASSERT_TRUE(tt.checkpoint_now());
  const auto& cp = tt.checkpoints().back();
  EXPECT_TRUE(cp.mem.empty());
  EXPECT_EQ(cp.stored_bytes, cp.bytes.size());

  const auto here = tt.save_state();
  ASSERT_EQ(m.run_for(seconds_to_cycles(0.002)), MStop::kBudget);
  ASSERT_TRUE(TimeTravel::restore_checkpoint_into(m, p->monitor(), cp));
  EXPECT_EQ(tt.save_state(), here);
}

}  // namespace
}  // namespace vdbg::test
