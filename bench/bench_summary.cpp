// Headline claim (§Abstract / §VI): "DualPar can increase system I/O
// throughput by 31% on average, compared to existing MPI-IO with or without
// using collective I/O."
//
// This bench runs the evaluation workloads (the Fig 3 single-application
// scenarios, read and write, plus the Table II interference scenario) and
// reports DualPar's improvement over the *better* of vanilla and collective
// I/O for each — then the geometric mean.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "figures.hpp"

using namespace dpar;
using bench::Variant;

int main(int argc, char** argv) {
  const std::uint64_t scale = bench::scale_divisor(argc, argv);
  std::printf("Headline summary (scale 1/%llu)\n",
              static_cast<unsigned long long>(scale));

  const std::vector<std::string> workloads{"mpi-io-test", "noncontig", "ior-mpi-io"};
  bench::ExperimentPool pool;

  struct Scenario {
    std::string name;
    std::array<std::size_t, 3> run;  ///< vanilla, collective, DualPar
  };
  std::vector<Scenario> scenarios;
  for (const std::string& w : workloads)
    for (bool is_write : {false, true}) {
      const std::string name = w + (is_write ? " write" : " read");
      auto cell = [w, is_write, scale](Variant v) {
        return bench::fig3_single(w, is_write, v, scale);
      };
      scenarios.push_back({name, bench::submit_row(pool, name, cell)});
    }
  for (bool is_write : {false, true}) {
    const std::string name = std::string("2x mpi-io-test ") + (is_write ? "write" : "read");
    auto cell = [is_write, scale](Variant v) {
      return bench::table2_pair(is_write, v, scale);
    };
    scenarios.push_back({name, bench::submit_row(pool, name, cell)});
  }

  bench::Table t("DualPar vs best(vanilla, collective) across the evaluation suite");
  t.set_headers({"scenario", "best other MB/s", "DualPar MB/s", "improvement %"});

  std::vector<double> improvements;
  for (const Scenario& s : scenarios) {
    const double a = pool.value(s.run[0]);
    const double b = pool.value(s.run[1]);
    const double d = pool.value(s.run[2]);
    const double best = std::max(a, b);
    improvements.push_back(d / best);
    t.add_row(s.name, {best, d, (d / best - 1.0) * 100.0}, 1);
  }

  double log_sum = 0;
  for (double r : improvements) log_sum += std::log(r);
  const double geo = std::exp(log_sum / static_cast<double>(improvements.size()));
  t.add_note("paper abstract: +31% on average over MPI-IO with or without "
             "collective I/O");
  t.print();
  std::printf("\ngeometric-mean DualPar improvement over the best alternative: "
              "%+.0f%% (paper: +31%%)\n", (geo - 1.0) * 100.0);

  // The cost of batching that the paper leaves implicit: DualPar trades
  // per-call latency for throughput (suspended processes wait out a whole
  // data-driven cycle). scenarios[0] is the single mpi-io-test read.
  bench::Table lat("Per-call read latency, mpi-io-test (ms)");
  lat.set_headers({"variant", "mean", "p50", "p99"});
  const Variant variants[] = {Variant::kVanilla, Variant::kCollective, Variant::kDualPar};
  for (std::size_t vi = 0; vi < 3; ++vi)
    lat.add_row(bench::variant_name(variants[vi]),
                pool.record(scenarios[0].run[vi]).stats.aux, 2);
  lat.add_note("batching raises tail latency while cutting total runtime — the "
               "data-driven mode's inherent trade");
  lat.print();
  bench::write_perf_json("bench_summary", pool);
  return 0;
}
