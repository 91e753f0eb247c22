// Figure 8 — BTIO (64 processes) throughput as the per-process cache quota
// sweeps from 0 to 1024 KB.
//
// Paper shape: 0 KB behaves like vanilla (2.7 MB/s-class); 64 KB already
// yields a ~43x jump (BTIO's native requests are tiny); further growth gives
// diminishing returns.
#include <cstdio>

#include "figures.hpp"

using namespace dpar;

int main(int argc, char** argv) {
  const std::uint64_t scale = bench::scale_divisor(argc, argv);
  std::printf("Figure 8 reproduction (BTIO, 64 procs, cache quota sweep, "
              "scale 1/%llu)\n", static_cast<unsigned long long>(scale));
  bench::ExperimentPool pool;
  const std::vector<std::uint64_t> kbs{0, 64, 128, 256, 512, 1024};
  std::vector<std::size_t> runs;
  for (std::uint64_t kb : kbs)
    runs.push_back(pool.submit("quota=" + std::to_string(kb) + "KB", [kb, scale] {
      return bench::fig8_btio(kb * 1024, scale);
    }));
  bench::Table t("Fig 8: BTIO system I/O throughput (MB/s) vs per-process cache");
  t.set_headers({"cache (KB)", "MB/s", "vs 0 KB"});
  double base = 0;
  for (std::size_t i = 0; i < kbs.size(); ++i) {
    const double mbs = pool.value(runs[i]);
    if (kbs[i] == 0) base = mbs;
    t.add_row(std::to_string(kbs[i]), {mbs, mbs / base}, 1);
  }
  t.add_note("paper: 0 KB == vanilla (~2.7 MB/s); 64 KB already ~43x; "
             "diminishing returns beyond");
  t.print();
  bench::write_perf_json("bench_fig8_cache_size", pool);
  return 0;
}
