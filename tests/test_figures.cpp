// Shape-regression suite: every qualitative claim the reproduction makes
// about the paper's figures is pinned here at miniature scale, so a
// refactoring that silently breaks "who wins" fails the build, not the
// bench read-through. The experiments come from the benches' catalogue
// (bench/figures.hpp): the same builders, at the sizes below.
#include <gtest/gtest.h>

#include <algorithm>
#include <any>
#include <vector>

#include "figures.hpp"

namespace dpar {
namespace {

using bench::Variant;

double run_mpiiotest(Variant v, std::uint64_t fsize, std::uint32_t instances = 1) {
  harness::Testbed tb;  // paper-shaped cluster (9 servers, 4 nodes)
  wl::MpiIoTestConfig c;
  c.file_size = fsize;
  return bench::run(tb, v, c, {64, instances}).system_mbs;
}

TEST(Fig3Shape, DualParWinsSingleAppSequentialRead) {
  const std::uint64_t fsize = 64 << 20;
  const double vanilla = run_mpiiotest(Variant::kVanilla, fsize);
  const double dualpar = run_mpiiotest(Variant::kDualPar, fsize);
  EXPECT_GT(dualpar, vanilla * 1.5);  // paper: 2.3x
}

TEST(Fig3Shape, CollectiveLosesOnIor) {
  auto run = [&](Variant v) {
    harness::Testbed tb;
    wl::IorConfig c;
    c.file_size = 512ull << 20;
    c.request_size = 32 * 1024;
    return bench::run(tb, v, c).job_mbs;
  };
  const double vanilla = run(Variant::kVanilla);
  const double coll = run(Variant::kCollective);
  const double dualpar = run(Variant::kDualPar);
  EXPECT_LT(coll, vanilla);            // the striping/domain mismatch (§V-B)
  EXPECT_GT(dualpar, coll * 2);        // DualPar far ahead of collective
  EXPECT_GE(dualpar, vanilla * 0.95);  // and at least on par with vanilla
}

TEST(Fig3Shape, NoncontigOrderingVanillaCollectiveDualPar) {
  auto run = [&](Variant v) {
    harness::Testbed tb;
    wl::NoncontigConfig c;
    c.columns = 64;
    c.elmt_count = 128;
    c.rows = 1024;
    return bench::run(tb, v, c).job_mbs;
  };
  const double vanilla = run(Variant::kVanilla);
  const double coll = run(Variant::kCollective);
  const double dualpar = run(Variant::kDualPar);
  EXPECT_GT(coll, vanilla * 5);     // collective transforms noncontig
  EXPECT_GT(dualpar, coll);         // and DualPar beats collective (+57% paper)
}

TEST(Fig1Shape, Strategy3LosesAtLowIoRatioWinsAtHigh) {
  // At a low I/O ratio the redundant ghost computation makes DualPar slower
  // than vanilla; at ~100% it is far faster.
  auto runtime = [&](Variant v, sim::Time compute) {
    harness::Testbed tb;
    wl::DemoConfig c;
    c.file_size = 32 << 20;
    c.segment_size = 4096;
    c.compute_per_call = compute;
    return bench::run(tb, v, c, {8}).job->completion_time();
  };
  // Pure I/O: Strategy 3 wins big.
  EXPECT_LT(runtime(Variant::kDualPar, 0), runtime(Variant::kVanilla, 0));
  // Compute-dominated: Strategy 3's ghost re-runs the compute and loses.
  const sim::Time heavy = sim::msec(200);
  EXPECT_GT(runtime(Variant::kDualPar, heavy), runtime(Variant::kVanilla, heavy));
}

TEST(Table2Shape, InterferenceGapAndSeekReduction) {
  const std::uint64_t fsize = 48 << 20;
  const double vanilla2 = run_mpiiotest(Variant::kVanilla, fsize, 2);
  const double dualpar2 = run_mpiiotest(Variant::kDualPar, fsize, 2);
  EXPECT_GT(dualpar2, vanilla2 * 1.5);  // paper: ~2.7x
}

TEST(Fig6Shape, ServiceOrderSamplesAreNonEmpty) {
  // Bench cells at DPAR_SCALE=64, where DualPar finishes its server-1 reads
  // long before the jobs end: both Fig 6 windows must still show dispatches.
  using Trace = std::vector<disk::TraceEvent>;
  for (Variant v : {Variant::kVanilla, Variant::kDualPar}) {
    const bench::ExperimentStats s = bench::table2_pair(/*is_write=*/false, v, 64);
    EXPECT_FALSE(std::any_cast<const Trace&>(s.detail).empty()) << bench::variant_name(v);
  }
}

TEST(Fig4Shape, DualParAboveCollectiveAboveVanilla) {
  // Bench cells at DPAR_SCALE=64. The paper's further claim that DualPar's
  // gain keeps growing with the process count does not hold yet (see
  // EXPERIMENTS.md, Fig 4), so it is not pinned here.
  for (std::uint32_t procs : {16u, 64u}) {
    const double vanilla = bench::fig4_btio(procs, Variant::kVanilla, 64).value;
    const double coll = bench::fig4_btio(procs, Variant::kCollective, 64).value;
    const double dualpar = bench::fig4_btio(procs, Variant::kDualPar, 64).value;
    EXPECT_GT(coll, vanilla) << procs << " procs";
    EXPECT_GT(dualpar, coll) << procs << " procs";
  }
}

TEST(Fig5Shape, DualParIoTimeBelowBothAlternatives) {
  for (std::uint32_t queries : {16u, 24u, 32u}) {
    const double vanilla = bench::fig5_s3asim(queries, Variant::kVanilla, 64).value;
    const double coll = bench::fig5_s3asim(queries, Variant::kCollective, 64).value;
    const double dualpar = bench::fig5_s3asim(queries, Variant::kDualPar, 64).value;
    EXPECT_LT(dualpar, std::min(vanilla, coll)) << queries << " queries";
  }
}

TEST(Fig8Shape, ThroughputRisesWithQuotaThenSaturates) {
  auto run = [&](std::uint64_t quota) {
    harness::TestbedConfig cfg;
    cfg.dualpar.cache_quota = quota;
    harness::Testbed tb(cfg);
    wl::BtioConfig c;
    c.total_bytes = 8 << 20;
    c.write_steps = 8;
    return bench::run(tb, Variant::kDualPar, c).job_mbs;
  };
  const double q64k = run(64 * 1024);
  const double q1m = run(1 << 20);
  const double q4m = run(4 << 20);
  EXPECT_GT(q1m, q64k);                 // growing quota helps...
  EXPECT_LT(q4m, q1m * 1.6);            // ...with diminishing returns
}

TEST(Fig7Shape, AdaptiveDualParMatchesVanillaWhenAlone) {
  auto runtime = [&](Variant v) {
    harness::Testbed tb;
    wl::MpiIoTestConfig c;
    c.file_size = 96 << 20;
    return bench::run(tb, v, c).job->completion_time();
  };
  // EMC leaves the lone sequential program computation-driven: identical runs.
  EXPECT_EQ(runtime(Variant::kAdaptive), runtime(Variant::kVanilla));
}

TEST(Table3Shape, AdversaryOverheadBoundedAndLatched) {
  auto runtime = [&](Variant v) {
    harness::Testbed tb;
    wl::DependentConfig c;
    c.file_size = 64 << 20;
    c.requests = 200;
    const bench::Run r = bench::run(tb, v, c, {8});
    if (v == Variant::kDualPar) {
      EXPECT_TRUE(tb.emc().latched_off(r.job->id()));
    }
    return r.job->completion_time();
  };
  const auto base = runtime(Variant::kVanilla);
  const auto with = runtime(Variant::kDualPar);
  // Worst case stays within 10% (paper: 7.2% at the largest cache).
  EXPECT_LT(static_cast<double>(with), static_cast<double>(base) * 1.10);
}

}  // namespace
}  // namespace dpar
