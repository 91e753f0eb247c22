// Extension: is DualPar a disk-era optimization?
//
// The paper's whole premise is the order-of-magnitude gap between random and
// sequential service on rotating disks. Replacing every server's RAID pair
// with 2012-class SSDs (uniform ~50 µs access, no rotational penalty) asks
// how much of the benefit survives. Expected: vanilla recovers massively on
// the small-random workloads, and DualPar's advantage shrinks toward its
// residual sources (request-count reduction and round-trip batching).
#include <array>
#include <cstdio>
#include <string>
#include <vector>

#include "figures.hpp"

using namespace dpar;
using bench::Variant;

namespace {

bench::ExperimentStats run(const std::string& workload, Variant v, bool ssd,
                           std::uint64_t scale) {
  harness::TestbedConfig cfg;
  if (ssd) cfg.disk = disk::ssd_params();
  harness::Testbed tb(cfg);
  const bench::Run r = workload == "mpi-io-test"
                           ? bench::run(tb, v, bench::paper_mpi_io_test(scale))
                           : bench::run(tb, v, bench::paper_noncontig(scale));
  return {r.job_mbs, r.events};
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t scale = bench::scale_divisor(argc, argv);
  std::printf("Extension: DualPar on SSD-backed servers (scale 1/%llu)\n",
              static_cast<unsigned long long>(scale));
  bench::ExperimentPool pool;
  const std::string workloads[] = {"mpi-io-test", "noncontig"};
  std::vector<std::array<std::size_t, 3>> runs;  // per (workload, medium)
  for (const std::string& w : workloads)
    for (bool ssd : {false, true})
      runs.push_back(bench::submit_row(pool, w + (ssd ? " SSD" : " disk"),
                                       [w, ssd, scale](Variant v) {
                                         return run(w, v, ssd, scale);
                                       }));
  for (std::size_t wi = 0; wi < 2; ++wi) {
    bench::Table t(workloads[wi] +
                   " read throughput (MB/s): 7200-RPM RAID vs SSD servers");
    t.set_headers({"medium", "vanilla", "collective", "DualPar", "DP/vanilla"});
    for (bool ssd : {false, true}) {
      const auto& row = runs[wi * 2 + ssd];
      const double a = pool.value(row[0]);
      const double b = pool.value(row[1]);
      const double c = pool.value(row[2]);
      t.add_row(ssd ? "SSD" : "disk", {a, b, c, c / a}, 1);
    }
    t.print();
  }
  std::printf("\nThe service-order gap the paper exploits is mechanical; on "
              "SSDs the residual gains come from fewer, larger requests and "
              "fewer synchronous round trips.\n");
  bench::write_perf_json("bench_ssd_era", pool);
  return 0;
}
