// Extension experiment: I/O performance variability (the setting of
// Lofstead et al., the paper's [11]): one of the nine data servers is
// degraded — half the media rate and slower seeks. Stragglers hurt
// synchronous round-based I/O far more than batched I/O, so DualPar's
// data-driven batches should tolerate the slow server better than vanilla
// MPI-IO does.
//
// Not a figure from the paper — an extension the paper's related-work
// discussion motivates.
#include <array>
#include <cstdio>
#include <string>

#include "figures.hpp"

using namespace dpar;
using bench::Variant;

namespace {

bench::ExperimentStats run(Variant v, double degrade_factor, std::uint64_t scale) {
  harness::TestbedConfig cfg;
  if (degrade_factor < 1.0) {
    disk::DiskParams slow = cfg.disk;
    slow.sustained_mb_s *= degrade_factor;
    slow.settle_ms /= degrade_factor;
    slow.full_stroke_ms /= degrade_factor;
    cfg.per_server_disk.assign(cfg.data_servers, cfg.disk);
    cfg.per_server_disk[4] = slow;  // one straggler in the middle
  }
  harness::Testbed tb(cfg);
  const bench::Run r = bench::run(tb, v, bench::paper_mpi_io_test(scale));
  return {r.job_mbs, r.events};
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t scale = bench::scale_divisor(argc, argv);
  std::printf("Extension: one degraded data server (variability tolerance), "
              "scale 1/%llu\n", static_cast<unsigned long long>(scale));
  bench::ExperimentPool pool;
  const double speeds[] = {1.0, 0.5, 0.25};
  std::array<std::size_t, 3> runs[3];  // [speed]
  for (std::size_t s = 0; s < 3; ++s)
    runs[s] = bench::submit_row(
        pool, "speed=" + std::to_string(static_cast<int>(speeds[s] * 100)) + "%",
        [f = speeds[s], scale](Variant v) { return run(v, f, scale); });
  auto mbs = [&](std::size_t s, std::size_t v) { return pool.value(runs[s][v]); };

  bench::Table t("mpi-io-test read throughput (MB/s) with a straggler server");
  t.set_headers({"configuration", "vanilla", "collective", "DualPar",
                 "retained % (DP)"});
  t.add_row("all servers healthy", {mbs(0, 0), mbs(0, 1), mbs(0, 2), 100.0}, 1);
  for (std::size_t s = 1; s < 3; ++s) {
    char label[48];
    std::snprintf(label, sizeof label, "server 4 at %.0f%% speed", speeds[s] * 100);
    t.add_row(label, {mbs(s, 0), mbs(s, 1), mbs(s, 2), mbs(s, 2) / mbs(0, 2) * 100.0}, 1);
  }
  t.add_note("synchronous per-call I/O is gated by the straggler every round; "
             "DualPar's deep batches keep the healthy disks busy meanwhile");
  t.print();

  std::printf("\nretained throughput with a 4x-degraded server: vanilla %.0f%%, "
              "collective %.0f%%, DualPar %.0f%%\n",
              mbs(2, 0) / mbs(0, 0) * 100.0, mbs(2, 1) / mbs(0, 1) * 100.0,
              mbs(2, 2) / mbs(0, 2) * 100.0);
  bench::write_perf_json("bench_variability", pool);
  return 0;
}
