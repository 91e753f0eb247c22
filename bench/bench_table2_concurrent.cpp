// Table II + Figure 6 — two concurrent mpi-io-test instances (16 KB
// requests, each with its own 2 GB file), read and write, under vanilla
// MPI-IO, collective I/O and DualPar; plus the blktrace service-order
// samples on data server 1 (Fig 6a vanilla, Fig 6b DualPar).
//
// Paper reference (aggregate MB/s): read 106/168/284-ish, write 54/67/127;
// DualPar reduces the average seek distance "by up to ten times".
#include <array>
#include <cstdio>
#include <vector>

#include "figures.hpp"

using namespace dpar;
using bench::Variant;

int main(int argc, char** argv) {
  const std::uint64_t scale = bench::scale_divisor(argc, argv);
  std::printf("Table II / Figure 6 reproduction (2 concurrent mpi-io-test, 64 "
              "procs each, scale 1/%llu)\n",
              static_cast<unsigned long long>(scale));

  bench::ExperimentPool pool;
  std::array<std::size_t, 3> runs[2];  // [is_write]
  for (bool is_write : {false, true})
    runs[is_write] = bench::submit_row(pool, is_write ? "write" : "read",
                                       [is_write, scale](Variant v) {
                                         return bench::table2_pair(is_write, v, scale);
                                       });

  bench::Table t("Table II: aggregate I/O throughput (MB/s), 2 concurrent mpi-io-test");
  t.set_headers({"direction", "vanilla", "collective", "DualPar", "DP/vanilla"});
  for (bool is_write : {false, true}) {
    const double a = pool.value(runs[is_write][0]);
    const double b = pool.value(runs[is_write][1]);
    const double c = pool.value(runs[is_write][2]);
    t.add_row(is_write ? "write" : "read", {a, b, c, c / a}, 1);
  }
  t.add_note("paper Table II: read 106/168/284, write 54/67/127 (OCR of the "
             "vanilla read cell is ambiguous)");
  t.print();

  // Fig 6 samples the read runs.
  const bench::ExperimentStats& vr = pool.record(runs[false][0]).stats;
  const bench::ExperimentStats& dr = pool.record(runs[false][2]).stats;
  using Trace = std::vector<disk::TraceEvent>;
  bench::print_trace_sample("Fig 6(a): vanilla MPI-IO service order, server 1",
                            std::any_cast<const Trace&>(vr.detail));
  bench::print_trace_sample("Fig 6(b): DualPar service order, server 1",
                            std::any_cast<const Trace&>(dr.detail));
  std::printf("\nmean seek distance on server 1 (sectors): vanilla=%.0f "
              "DualPar=%.0f (%.1fx reduction; paper: up to 10x)\n",
              vr.aux[0], dr.aux[0], vr.aux[0] / dr.aux[0]);
  bench::write_perf_json("bench_table2_concurrent", pool);
  return 0;
}
