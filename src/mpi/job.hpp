// Simulated MPI job: a set of rank processes executing Programs on compute
// nodes, a barrier, and an attached I/O driver (the MPI-IO library variant
// the job runs with).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cluster/node.hpp"
#include "mpi/program.hpp"
#include "sim/engine.hpp"
#include "sim/func.hpp"
#include "sim/stats.hpp"

namespace dpar::mpi {

class Job;
class Process;

/// The MPI-IO library seen by a process. Implementations: vanilla
/// independent I/O, collective (two-phase) I/O, Strategy-2 pre-execution
/// prefetching, and DualPar.
class IoDriver {
 public:
  virtual ~IoDriver() = default;

  /// Serve one I/O call of `proc`; `done` resumes the process. `call` stays
  /// valid until `done` has run or been destroyed, so a driver may keep a
  /// pointer to it instead of a copy (the collective driver does).
  virtual void io(Process& proc, const IoCall& call, sim::UniqueFunction done) = 0;

  /// Notifications the DualPar cycle coordinator relies on.
  virtual void on_barrier_enter(Process&) {}
  virtual void on_process_end(Process&) {}

  // Kept only for perfbench's traced driver; delete with the next perfbench change.
  virtual bool lane_splittable() const { return false; }

  virtual std::string name() const = 0;
};

enum class ProcState {
  kRunning,      ///< computing or dispatching
  kBlockedIo,    ///< inside an I/O call, driver working
  kSuspended,    ///< parked by DualPar's PEC awaiting a data-driven cycle
  kAtBarrier,
  kFinished,
};

class Process {
 public:
  Process(sim::Engine& eng, Job& job, std::uint32_t rank, std::uint32_t global_id,
          std::unique_ptr<Program> prog, cluster::ComputeNode& node);

  void start();

  Job& job() { return job_; }
  std::uint32_t rank() const { return rank_; }
  /// Cluster-unique process id (I/O context id at the disks).
  std::uint32_t global_id() const { return global_id_; }
  cluster::ComputeNode& node() { return node_; }
  ProcState state() const { return state_; }
  void set_suspended(bool s);

  /// Fork the program at its exact current position (ghost pre-execution).
  std::unique_ptr<Program> clone_program() const { return prog_->clone(); }

  sim::Time io_time() const { return io_time_; }
  sim::Time compute_time() const { return compute_time_; }
  std::uint64_t bytes_read() const { return bytes_read_; }
  std::uint64_t bytes_written() const { return bytes_written_; }
  sim::Time finish_time() const { return finish_time_; }

  /// Per-call I/O latency, recorded per rank; Job merges the ranks'
  /// histograms in rank order at read time.
  const sim::Histogram& read_latency() const { return read_lat_; }
  const sim::Histogram& write_latency() const { return write_lat_; }
  void record_latency(bool is_write, sim::Time latency) {
    (is_write ? write_lat_ : read_lat_)
        .add(static_cast<double>(latency) / sim::kNsPerUs);
  }

  /// Observed application I/O throughput (bytes per second of elapsed time
  /// spent in I/O calls); PEC uses it to bound pre-execution duration.
  double recent_io_bandwidth() const;

 private:
  void advance();
  void handle(OpCompute op);
  void handle(OpIo op);
  void handle(OpBarrier op);
  void handle(OpEnd op);

  sim::Engine& eng_;
  Job& job_;
  std::uint32_t rank_;
  std::uint32_t global_id_;
  std::unique_ptr<Program> prog_;
  cluster::ComputeNode& node_;
  ProgramContext ctx_;
  ProcState state_ = ProcState::kRunning;
  sim::Time io_time_ = 0;
  sim::Time compute_time_ = 0;
  std::uint64_t bytes_read_ = 0;
  std::uint64_t bytes_written_ = 0;
  sim::Time finish_time_ = -1;
  sim::Histogram read_lat_;
  sim::Histogram write_lat_;
};

class Job {
 public:
  using ProgramFactory = std::function<std::unique_ptr<Program>(std::uint32_t rank)>;

  Job(sim::Engine& eng, std::uint32_t id, std::string name, IoDriver& driver);

  /// Create `nprocs` rank processes, distributed round-robin over `nodes`.
  /// `first_global_id` spaces process ids so concurrent jobs don't collide.
  void spawn(std::uint32_t nprocs, const std::vector<cluster::ComputeNode*>& nodes,
             const ProgramFactory& factory, std::uint32_t first_global_id);

  void start();

  std::uint32_t id() const { return id_; }
  const std::string& name() const { return name_; }
  IoDriver& driver() { return driver_; }
  sim::Engine& engine() { return eng_; }
  std::uint32_t nprocs() const { return static_cast<std::uint32_t>(procs_.size()); }
  Process& process(std::uint32_t i) { return *procs_[i]; }
  bool finished() const { return finished_ == nprocs() && nprocs() > 0; }
  /// Ranks that have not reached their end yet. O(1): a rank is counted as
  /// finished the moment its state becomes ProcState::kFinished.
  std::uint32_t live() const { return nprocs() - finished_; }
  sim::Time start_time() const { return start_time_; }
  sim::Time completion_time() const { return completion_time_; }

  /// Aggregates for EMC's I/O-ratio input and throughput reporting.
  sim::Time total_io_time() const;
  sim::Time total_compute_time() const;
  std::uint64_t total_bytes() const;

  /// Per-call I/O latency distribution (microseconds), read and write:
  /// the ranks' per-process histograms merged in rank order.
  sim::Histogram read_latency() const;
  sim::Histogram write_latency() const;

  /// Barrier entry from `proc`; `resume` fires when all live ranks arrived.
  void barrier_enter(Process& proc, sim::UniqueFunction resume);

  /// True when every rank is suspended, at the barrier or finished (and the
  /// job has ranks); the DualPar cycle coordinator triggers on it.
  bool all_parked() const;

  /// Internal: called by Process.
  void process_finished(Process& proc);

 private:
  void release_barrier_if_ready();

  sim::Engine& eng_;
  std::uint32_t id_;
  std::string name_;
  IoDriver& driver_;
  std::vector<std::unique_ptr<Process>> procs_;
  std::uint32_t finished_ = 0;
  sim::Time start_time_ = -1;
  sim::Time completion_time_ = -1;

  // Barrier state for the current epoch. Waiters carry their rank so the
  // release can sort them into canonical rank order.
  struct BarrierWaiter {
    std::uint32_t rank;
    sim::UniqueFunction resume;
  };
  std::vector<BarrierWaiter> barrier_waiters_;
};

}  // namespace dpar::mpi
