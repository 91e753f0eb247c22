// Figure 5 — three concurrent S3asim instances (sequence-similarity search),
// total I/O time vs number of queries, under vanilla MPI-IO, collective I/O
// and DualPar.
//
// Paper shape: DualPar's I/O times are smaller by up to 25% (17% on
// average); the advantage is modest because S3asim's requests are much
// larger than BTIO's.
#include <array>
#include <cstdio>
#include <string>
#include <vector>

#include "figures.hpp"

using namespace dpar;
using bench::Variant;

int main(int argc, char** argv) {
  const std::uint64_t scale = bench::scale_divisor(argc, argv);
  std::printf("Figure 5 reproduction (3 concurrent S3asim, 16 procs each, "
              "scale 1/%llu)\n", static_cast<unsigned long long>(scale));
  bench::ExperimentPool pool;
  const std::uint32_t query_counts[] = {16, 24, 32};
  std::vector<std::array<std::size_t, 3>> runs;
  for (std::uint32_t q : query_counts)
    runs.push_back(bench::submit_row(
        pool, "q=" + std::to_string(q),
        [q, scale](Variant v) { return bench::fig5_s3asim(q, v, scale); }));
  bench::Table t("Fig 5: total I/O time (s) vs #queries, 3 concurrent S3asim");
  t.set_headers({"queries", "vanilla", "collective", "DualPar", "DP saving vs best"});
  double savings = 0;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const double a = pool.value(runs[i][0]);
    const double b = pool.value(runs[i][1]);
    const double c = pool.value(runs[i][2]);
    const double save = 1.0 - c / std::min(a, b);
    savings += save;
    t.add_row(std::to_string(query_counts[i]), {a, b, c, save * 100.0}, 1);
  }
  t.add_note("paper: DualPar I/O times smaller by up to 25%, 17% on average "
             "(modest: S3asim's requests are large)");
  t.print();
  std::printf("mean DualPar I/O-time saving: %.0f%% (paper: 17%%)\n",
              savings / static_cast<double>(runs.size()) * 100.0);
  bench::write_perf_json("bench_fig5_s3asim", pool);
  return 0;
}
