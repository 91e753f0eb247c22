// ExperimentPool — fixed-thread runner for independent deterministic
// experiments (one sweep point / variant / figure cell each).
//
// The bench suite's experiments are fully independent: each builds its own
// Testbed (engine, servers, RNG streams) and returns numbers. The pool runs
// them on DPAR_JOBS worker threads (default: all hardware threads) off one
// shared FIFO — no work stealing, no shared simulator state — and stores
// results by submission index, so consuming them in submission order yields
// tables and CSVs byte-identical to a sequential run at any thread count.
//
// Lives in the library (not bench/) so the determinism property tests can
// drive it; the namespace is dpar::bench because it is the experiment-runner
// contract of the bench layer.
#pragma once

#include <any>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace dpar::bench {

/// What an experiment hands back: its headline metric, optional secondary
/// metrics, a result that is more than numbers, and the number of engine
/// events it fired (for perf accounting).
struct ExperimentStats {
  ExperimentStats(double value = 0, std::uint64_t events = 0,
                  std::vector<double> aux = {}, std::any detail = {})
      : value(value), events(events), aux(std::move(aux)), detail(std::move(detail)) {}

  double value;
  std::uint64_t events;
  std::vector<double> aux;  ///< extra metrics (e.g. latency percentiles)
  std::any detail;          ///< e.g. a trace window; read with std::any_cast
};

/// A finished experiment, as recorded by the pool.
struct ExperimentRecord {
  std::string label;
  ExperimentStats stats;
  double wall_s = 0;  ///< wall-clock seconds the experiment ran for
};

class ExperimentPool {
 public:
  using Task = std::function<ExperimentStats()>;

  /// Thread count from the DPAR_JOBS env var (clamped to >= 1), else
  /// std::thread::hardware_concurrency().
  static unsigned jobs_from_env();

  explicit ExperimentPool(unsigned jobs = jobs_from_env());
  ~ExperimentPool();

  ExperimentPool(const ExperimentPool&) = delete;
  ExperimentPool& operator=(const ExperimentPool&) = delete;

  /// Enqueue an independent experiment; returns its submission index.
  std::size_t submit(std::string label, Task fn);

  /// Block until experiment `index` finishes; rethrows its exception if any.
  /// The reference is invalidated by a later submit().
  const ExperimentRecord& record(std::size_t index);

  /// Shorthand: the headline metric of experiment `index`.
  double value(std::size_t index) { return record(index).stats.value; }

  /// Wait for every submitted experiment; records in submission order.
  const std::vector<ExperimentRecord>& wait_all();

  unsigned jobs() const { return jobs_; }

  /// Wall-clock seconds from construction to the end of the last wait_all().
  double suite_wall_s() const { return suite_wall_s_; }

 private:
  void worker_();

  unsigned jobs_;
  std::vector<std::thread> threads_;
  mutable std::mutex mu_;
  std::condition_variable work_cv_;   ///< workers wait for tasks
  std::condition_variable done_cv_;   ///< waiters wait for results
  std::vector<Task> tasks_;           ///< tasks_[i] empty once claimed
  std::vector<ExperimentRecord> records_;
  std::vector<std::exception_ptr> errors_;
  std::vector<bool> done_;
  std::size_t next_task_ = 0;
  std::size_t done_count_ = 0;
  bool stopping_ = false;
  std::chrono::steady_clock::time_point start_;
  double suite_wall_s_ = 0;
};

}  // namespace dpar::bench
