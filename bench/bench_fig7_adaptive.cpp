// Figure 7 — opportunistic mode switching under a varying workload.
//
// mpi-io-test starts alone at t=0 reading its own file; hpio joins later,
// reading another file with the same request size. Both jobs run DualPar in
// *adaptive* policy. While mpi-io-test is alone, its sequential requests
// keep disk efficiency high and EMC leaves it in the normal
// computation-driven mode; the moment hpio joins, the two request streams
// interfere, the per-server seek distance explodes while ReqDist stays at
// the request size, and EMC flips both programs into data-driven mode.
//
// Outputs: (a) system throughput per second; (b) mean seek distance on data
// server 1 per second — for both the vanilla baseline and DualPar.
#include <cstdio>

#include "figures.hpp"

using namespace dpar;
using bench::Variant;

namespace {

void print_timeline(const char* name, const bench::Timeline& t) {
  const double join_s = sim::to_seconds(bench::kFig7JoinAt);
  std::printf("\n-- %s --\n", name);
  std::printf("  %6s  %14s  %16s\n", "t(s)", "MB/s", "seek(sectors)");
  for (std::size_t i = 0; i < t.throughput.points.size(); ++i) {
    const double secs = sim::to_seconds(t.throughput.points[i].first);
    const double seek = i < t.seek.points.size() ? t.seek.points[i].second : 0;
    std::printf("  %6.0f  %14.1f  %16.0f%s\n", secs, t.throughput.points[i].second,
                seek, secs == join_s ? "   <- hpio joins" : "");
  }
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t scale = bench::scale_divisor(argc, argv);
  std::printf("Figure 7 reproduction (hpio joins mpi-io-test at t=5s, "
              "scale 1/%llu)\n", static_cast<unsigned long long>(scale));

  bench::ExperimentPool pool;
  const std::size_t runs[] = {
      pool.submit("vanilla MPI-IO",
                  [scale] { return bench::fig7_join(Variant::kVanilla, scale); }),
      pool.submit("DualPar adaptive",
                  [scale] { return bench::fig7_join(Variant::kAdaptive, scale); })};
  const bench::ExperimentStats& vanilla = pool.record(runs[0]).stats;
  const bench::ExperimentStats& dualpar = pool.record(runs[1]).stats;
  print_timeline("Fig 7(a)/(b) timeline: vanilla MPI-IO",
                 std::any_cast<const bench::Timeline&>(vanilla.detail));
  print_timeline("Fig 7(a)/(b) timeline: DualPar (adaptive)",
                 std::any_cast<const bench::Timeline&>(dualpar.detail));

  // value = MB/s after the join; aux[0] = MB/s before it.
  bench::Table t("Fig 7 summary");
  t.set_headers({"phase", "vanilla MB/s", "DualPar MB/s", "gain"});
  t.add_row("solo (t<5s)",
            {vanilla.aux[0], dualpar.aux[0], dualpar.aux[0] / vanilla.aux[0]}, 2);
  t.add_row("interfering", {vanilla.value, dualpar.value, dualpar.value / vanilla.value},
            2);
  t.add_note("paper: DualPar matches vanilla while mpi-io-test runs alone "
             "(stays computation-driven), then +46% once hpio joins; seek "
             "distances drop when data-driven mode engages");
  t.print();
  std::printf("EMC mode switches during the DualPar run: %llu (expect >= 2: "
              "both jobs flip to data-driven after t=5s)\n",
              static_cast<unsigned long long>(dualpar.aux[1]));
  bench::write_perf_json("bench_fig7_adaptive", pool);
  return 0;
}
