// Host-time tracing from outside the simulator: forwarding wrappers around a
// job's mpi::IoDriver and its ranks' mpi::Programs. Nothing here touches the
// simulator's own code; the wrappers only time the calls the simulator makes
// into them and record one span per application I/O call.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "mpi/job.hpp"
#include "mpi/program.hpp"

namespace perfbench {

/// Host-time layers the wrappers can see. Each gets a self time: its spans'
/// durations minus whatever nested spans of other layers covered.
enum class Layer { kMpiioIssue, kDualparIssue, kWlNext, kCount };

/// One application I/O call of one rank of one job.
struct Span {
  std::uint32_t job = 0;        ///< index of the job in the workload
  std::uint32_t rank = 0;
  std::uint64_t seq = 0;        ///< the rank's call number, from 0
  std::uint64_t bytes = 0;
  bool is_write = false;
  std::int64_t sim_start_ns = 0;  ///< simulated time the call entered io()
  std::int64_t sim_end_ns = -1;   ///< simulated time `done` fired
  std::int64_t host_start_ns = 0; ///< host time of io() entry, from run start
  std::int64_t issue_ns = 0;      ///< host ns inside the driver's io()
  std::int64_t next_ns = 0;       ///< host ns of the Program::next that made it
};

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  explicit Tracer(std::size_t jobs) : next_ns_(jobs), seq_(jobs) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Start of the timed run: span host times are relative to it.
  void mark_run_start() { run_start_ = Clock::now(); }

  /// Times one call into a layer; nested scopes are subtracted from the
  /// enclosing scope's self time.
  class Scope {
   public:
    Scope(Tracer& t, Layer l);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// Inclusive host ns so far.
    std::int64_t elapsed_ns() const;

   private:
    Tracer& t_;
    Layer layer_;
    Clock::time_point start_;
    std::int64_t child_ns_ = 0;
    Scope* parent_;
  };

  double self_s(Layer l) const { return static_cast<double>(self_ns_[static_cast<int>(l)]) * 1e-9; }
  std::uint64_t calls(Layer l) const { return calls_[static_cast<int>(l)]; }

  /// Write the spans as tab-separated text, one call per line.
  void write(const std::string& path, const std::vector<std::string>& job_names) const;

 private:
  friend class TracedDriver;
  friend class TracedProgram;

  std::int64_t since_start_ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - run_start_).count();
  }
  std::int64_t& pending_next(std::uint32_t job, std::uint32_t rank);

  Clock::time_point run_start_ = Clock::now();
  Scope* top_ = nullptr;
  std::int64_t self_ns_[static_cast<int>(Layer::kCount)] = {};
  std::uint64_t calls_[static_cast<int>(Layer::kCount)] = {};
  std::vector<std::vector<std::int64_t>> next_ns_;  ///< [job][rank]
  std::vector<std::vector<std::uint64_t>> seq_;     ///< [job][rank]
  std::vector<Span> spans_;
};

/// Forwards every IoDriver entry point to `inner`, timing io() as the issue
/// path and stamping the call's simulated start and end into a Span.
class TracedDriver final : public dpar::mpi::IoDriver {
 public:
  TracedDriver(dpar::mpi::IoDriver& inner, Tracer& tracer, std::uint32_t job, Layer issue)
      : inner_(inner), tracer_(tracer), job_(job), issue_(issue) {}

  void io(dpar::mpi::Process& proc, const dpar::mpi::IoCall& call,
          dpar::sim::UniqueFunction done) override;
  void on_barrier_enter(dpar::mpi::Process& p) override { inner_.on_barrier_enter(p); }
  void on_process_end(dpar::mpi::Process& p) override { inner_.on_process_end(p); }
  bool lane_splittable() const override { return inner_.lane_splittable(); }
  std::string name() const override { return inner_.name(); }

 private:
  dpar::mpi::IoDriver& inner_;
  Tracer& tracer_;
  std::uint32_t job_;
  Layer issue_;
};

/// Forwards Program::next, timing it; clone() wraps the clone, so ghost
/// pre-execution copies are timed too (their ops produce no spans).
class TracedProgram final : public dpar::mpi::Program {
 public:
  TracedProgram(std::unique_ptr<dpar::mpi::Program> inner, Tracer& tracer, std::uint32_t job)
      : inner_(std::move(inner)), tracer_(tracer), job_(job) {}

  dpar::mpi::Op next(dpar::mpi::ProgramContext& ctx) override;
  std::unique_ptr<dpar::mpi::Program> clone() const override {
    return std::make_unique<TracedProgram>(inner_->clone(), tracer_, job_);
  }
  bool uses_p2p() const override { return inner_->uses_p2p(); }

 private:
  std::unique_ptr<dpar::mpi::Program> inner_;
  Tracer& tracer_;
  std::uint32_t job_;
};

}  // namespace perfbench
