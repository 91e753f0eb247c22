// Figure 3 — system I/O throughput with a single program instance under
// vanilla MPI-IO, collective I/O and DualPar; (a) reads, (b) writes.
//
// Workloads (§V-B): mpi-io-test (sequential 16 KB requests, barrier per
// call), noncontig (vector-derived column access) and ior-mpi-io (per-rank
// sequential blocks, random across ranks). 64 processes each.
//
// Paper reference points (MB/s):
//   reads : mpi-io-test 115/117/263, noncontig ~25 coll -> 39 DualPar,
//           ior-mpi-io: DualPar well above both
//   writes: mpi-io-test: DualPar ~2x vanilla; ior: +35% over vanilla
// Expected shape: DualPar highest everywhere; collective helps noncontig a
// lot, mpi-io-test little, ior-mpi-io not at all.
#include <array>
#include <cstdio>

#include "figures.hpp"

using namespace dpar;
using bench::Variant;

int main(int argc, char** argv) {
  const std::uint64_t scale = bench::scale_divisor(argc, argv);
  std::printf("Figure 3 reproduction (single application, 64 procs, scale 1/%llu)\n",
              static_cast<unsigned long long>(scale));

  const std::vector<std::string> workloads{"mpi-io-test", "noncontig", "ior-mpi-io"};
  bench::ExperimentPool pool;
  std::array<std::size_t, 3> runs[2][3];  // [is_write][workload]
  for (bool is_write : {false, true})
    for (std::size_t wi = 0; wi < workloads.size(); ++wi)
      runs[is_write][wi] = bench::submit_row(
          pool, workloads[wi] + (is_write ? " write" : " read"),
          [w = workloads[wi], is_write, scale](Variant v) {
            return bench::fig3_single(w, is_write, v, scale);
          });

  for (bool is_write : {false, true}) {
    bench::Table t(is_write ? "Fig 3(b): system WRITE throughput (MB/s)"
                            : "Fig 3(a): system READ throughput (MB/s)");
    t.set_headers({"workload", "vanilla", "collective", "DualPar", "DP/vanilla",
                   "DP/collective"});
    for (std::size_t wi = 0; wi < workloads.size(); ++wi) {
      const double a = pool.value(runs[is_write][wi][0]);
      const double b = pool.value(runs[is_write][wi][1]);
      const double c = pool.value(runs[is_write][wi][2]);
      t.add_row(workloads[wi], {a, b, c, c / a, c / b}, 1);
    }
    if (!is_write) {
      t.add_note("paper Fig 3(a): mpi-io-test 115/117/263; noncontig DualPar 39 "
                 "(+57% over collective); ior DualPar >> both");
    } else {
      t.add_note("paper Fig 3(b): DualPar highest on all three (mpi-io-test ~2x "
                 "vanilla, ior +35%)");
    }
    t.print();
  }
  bench::write_perf_json("bench_fig3_single_app", pool);
  return 0;
}
