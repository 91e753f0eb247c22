// Figure 4 — three concurrent BTIO instances, process count swept over
// {16, 64, 256}, under vanilla MPI-IO, collective I/O and DualPar.
//
// Paper shape: vanilla collapses (request size shrinks to tens of bytes as
// the process count grows — 40 B at 256 procs); collective I/O and DualPar
// gain up to 24x and 35x; collective's advantage *shrinks* with more
// processes (its per-call exchange grows), DualPar keeps scaling.
#include <array>
#include <cstdio>

#include "figures.hpp"

using namespace dpar;
using bench::Variant;

int main(int argc, char** argv) {
  const std::uint64_t scale = bench::scale_divisor(argc, argv);
  std::printf("Figure 4 reproduction (3 concurrent BTIO, scale 1/%llu of class C/16)\n",
              static_cast<unsigned long long>(scale));
  bench::ExperimentPool pool;
  const std::vector<std::uint32_t> proc_counts{16, 64, 256};
  std::vector<std::array<std::size_t, 3>> runs;
  for (std::uint32_t procs : proc_counts)
    runs.push_back(bench::submit_row(pool, "procs=" + std::to_string(procs),
                                     [procs, scale](Variant v) {
                                       return bench::fig4_btio(procs, v, scale);
                                     }));
  bench::Table t("Fig 4: system I/O throughput (MB/s), 3 concurrent BTIO");
  t.set_headers({"procs", "vanilla", "collective", "DualPar", "coll/vanilla",
                 "DP/vanilla"});
  for (std::size_t i = 0; i < proc_counts.size(); ++i) {
    const double a = pool.value(runs[i][0]);
    const double b = pool.value(runs[i][1]);
    const double c = pool.value(runs[i][2]);
    t.add_row(std::to_string(proc_counts[i]), {a, b, c, b / a, c / a}, 1);
  }
  t.add_note("paper: gains up to 24x (collective) and 35x (DualPar) over vanilla;"
             " collective's edge shrinks as procs grow, DualPar's keeps growing");
  t.print();
  bench::write_perf_json("bench_fig4_btio_scaling", pool);
  return 0;
}
