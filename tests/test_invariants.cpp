// Debug invariant layer (src/sim/debug.hpp): the checks themselves, and —
// under DPAR_CHECK_INVARIANTS — proof that DPAR_ASSERT actually fires on
// deliberately corrupted structures. Death tests use the threadsafe style so
// they re-exec rather than fork mid-state.
#include <gtest/gtest.h>

#include "cache/rangeset.hpp"
#include "harness/testbed.hpp"
#include "pfs/layout.hpp"
#include "sim/debug.hpp"
#include "sim/engine.hpp"
#include "sim/rng.hpp"
#include "wl/workloads.hpp"

namespace dpar {
namespace {

using cache::RangeSet;
using sim::Engine;

TEST(Invariants, EngineSurvivesScheduleCancelChurn) {
  Engine eng;
  sim::Rng rng(123);
  std::vector<sim::EventId> pending;
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 40; ++i)
      pending.push_back(
          eng.after(static_cast<sim::Time>(rng.uniform(1000)), [] {}));
    // Cancel a deterministic half to force stale keys and compactions.
    for (std::size_t i = 0; i < pending.size(); i += 2) eng.cancel(pending[i]);
    pending.clear();
    eng.check_invariants();
    eng.run(30);
    eng.check_invariants();
  }
  eng.run();
  eng.check_invariants();
  EXPECT_TRUE(eng.empty());
}

TEST(Invariants, RangeSetStaysValidUnderRandomOps) {
  RangeSet rs;
  sim::Rng rng(7);
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t a = rng.uniform(1 << 16);
    const std::uint64_t b = a + 1 + rng.uniform(1 << 10);
    if (rng.chance(0.6)) {
      rs.add(a, b);
    } else {
      rs.remove(a, b);
    }
    rs.check_invariants();
  }
}

#if DPAR_CHECK_INVARIANTS

using InvariantsDeath = ::testing::Test;

TEST(InvariantsDeath, AssertFiresOnCorruptedRangeSetTotal) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  RangeSet rs;
  rs.add(0, 100);
  rs.add(200, 300);
  rs.debug_corrupt_total_for_test(1);
  EXPECT_DEATH(rs.check_invariants(),
               "incremental byte total diverged from range sum");
}

TEST(InvariantsDeath, AssertFiresOnCorruptedRangeSetOrder) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  RangeSet rs;
  rs.add(0, 100);
  rs.add(200, 300);
  rs.add(400, 500);
  rs.debug_corrupt_order_for_test();
  EXPECT_DEATH(rs.check_invariants(),
               "out of order, overlapping, or adjacent");
}

TEST(InvariantsDeath, MutationPathCatchesCorruptedTotal) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  RangeSet rs;
  rs.add(0, 100);
  rs.add(200, 300);
  rs.debug_corrupt_total_for_test(7);
  // remove() re-validates after mutating: the corruption is caught on the
  // next structural operation, not only by an explicit call.
  EXPECT_DEATH(rs.remove(50, 250), "diverged from range sum");
}

TEST(InvariantsDeath, CollectiveRoundRejectsMixedFiles) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // The two ranks of one collective round target different files; the
  // round is planned for one file and direction only.
  auto mixed_round = [] {
    harness::TestbedConfig cfg;
    cfg.data_servers = 2;
    cfg.compute_nodes = 2;
    harness::Testbed tb(cfg);
    wl::NoncontigConfig nc;
    nc.columns = 2;
    nc.elmt_count = 64;
    nc.rows = 64;
    nc.collective = true;
    const pfs::FileId a = tb.create_file("a", 1 << 20);
    const pfs::FileId b = tb.create_file("b", 1 << 20);
    tb.add_job("mixed", 2, tb.collective(), [&](std::uint32_t rank) {
      wl::NoncontigConfig c = nc;
      c.file = rank == 0 ? a : b;
      return wl::make_noncontig(c);
    }, dualpar::Policy::kForcedNormal);
    tb.run();
  };
  EXPECT_DEATH(mixed_round(), "mixes files or directions");
}

#else

TEST(InvariantsDeath, SkippedWithoutInvariantLayer) {
  GTEST_SKIP() << "DPAR_CHECK_INVARIANTS is compiled out in this build "
                  "(Release default); Debug/sanitizer legs run the death "
                  "tests.";
}

#endif  // DPAR_CHECK_INVARIANTS

}  // namespace
}  // namespace dpar
