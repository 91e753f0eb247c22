// Shared harness for the paper-reproduction benches: variants, scaling, perf
// accounting and table formatting. The benches' testbed is
// harness::TestbedConfig{} (the §V platform); their experiments come from the
// catalogue in figures.hpp.
//
// Every bench accepts `--full` to run at the paper's data sizes; the default
// divides file sizes by DPAR_SCALE (env, default 16) so the whole suite runs
// in seconds while preserving every trend (request sizes, process counts and
// thresholds are never scaled — only total data volume).
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "harness/experiment_pool.hpp"
#include "harness/testbed.hpp"
#include "metrics/perf.hpp"

namespace dpar::bench {

/// How a program runs: the MPI-IO driver plus the EMC policy. §V-B keeps
/// DualPar programs in data-driven mode; kAdaptive is DualPar under EMC's
/// opportunistic switching (Fig 7).
enum class Variant { kVanilla, kCollective, kDualPar, kPreexec, kAdaptive };

const char* variant_name(Variant v);

/// Data-size divisor: 1 with --full, else DPAR_SCALE env (default 16).
std::uint64_t scale_divisor(int argc, char** argv);

/// Substring label filter from the DPAR_BENCH_FILTER env var: true when the
/// variable is unset/empty or `label` contains it. Sweep benches consult
/// this to run a subset of their experiments; filtering changes stdout, so
/// runs meant for byte-comparison leave the variable unset.
bool label_selected(const std::string& label);

/// Repetitions for wall-clock timings from the DPAR_BENCH_REPEAT env var
/// (default 1, max 64). Benches that honour it run each timed section N
/// times and report the median wall time, so one noisy neighbour on a busy
/// CI host cannot fail a perf gate; simulated outputs are deterministic
/// across repeats, so stdout is unaffected. bench_micro maps it onto
/// google-benchmark repetitions (median aggregate); inline timings use
/// timed_median(). Throws std::invalid_argument on garbage.
unsigned bench_repeat();

/// Peak resident set size of this process (VmHWM from /proc/self/status),
/// in bytes; 0 when unavailable (non-Linux).
std::uint64_t peak_rss_bytes();

/// Wait for every experiment in `pool` and merge this bench's perf section
/// (per-experiment wall time + events, then `extra`, suite totals,
/// events/sec) into the shared perf report. Path from the DPAR_BENCH_JSON env
/// var, default "BENCH_sim_core.json". Returns the path written (empty on
/// failure).
std::string write_perf_json(const std::string& bench_name, ExperimentPool& pool,
                            std::vector<metrics::PerfEntry> extra = {});

/// Merge a hand-built entry list (bench_micro, which runs google-benchmark,
/// not a pool). Same path rules as the pool overload; nothing is written to
/// stdout, so bench output stays byte-comparable across runs.
std::string write_perf_json(const std::string& bench_name,
                            const std::vector<metrics::PerfEntry>& entries,
                            double suite_wall_s, unsigned jobs = 1);

/// Run `fn` bench_repeat() times, writing the median wall seconds to
/// `wall_s`, and return the last run's result. For deterministic timed
/// sections (every repeat computes the identical result) whose wall time
/// feeds a perf gate.
template <class Fn>
auto timed_median(double& wall_s, Fn&& fn) {
  std::vector<double> walls;
  const unsigned reps = bench_repeat();
  walls.reserve(reps);
  using Clock = std::chrono::steady_clock;
  for (unsigned r = 0; r + 1 < reps; ++r) {
    const auto t0 = Clock::now();
    (void)fn();
    walls.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
  }
  const auto t0 = Clock::now();
  auto result = fn();
  walls.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
  std::sort(walls.begin(), walls.end());
  wall_s = walls[walls.size() / 2];
  return result;
}

/// Simple aligned table with a title, headers, numeric rows and footnotes.
class Table {
 public:
  explicit Table(std::string title) : title_(std::move(title)) {}
  void set_headers(std::vector<std::string> headers) { headers_ = std::move(headers); }
  void add_row(const std::string& label, const std::vector<double>& values,
               int precision = 1);
  void add_text_row(const std::string& label, const std::vector<std::string>& cells);
  void add_note(const std::string& note) { notes_.push_back(note); }
  void print() const;

 private:
  std::string title_;
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
  std::vector<std::string> notes_;
};

/// Count service-order direction reversals in a trace window — the
/// quantitative signature of Figs 1(c)/1(d) and 6(a)/6(b) ("short sequences
/// growing in opposite directions" vs "moving mostly in one direction").
std::uint64_t trace_reversals(const std::vector<disk::TraceEvent>& events);

/// Render a small LBN-vs-time sample of a trace window, blktrace style.
void print_trace_sample(const std::string& title,
                        const std::vector<disk::TraceEvent>& events,
                        std::size_t max_lines = 16);

}  // namespace dpar::bench
