// Generic serially-served FIFO resource.
//
// Models any device that serves one job at a time with a caller-supplied
// service time: a NIC receive path, a data-server service thread, a
// memcached service thread. Jobs queue in arrival order.
//
// Service is event-chained: each job's completion event is scheduled when
// the job starts, not when it is submitted. A closed form that schedules the
// completion at submit time gives the same completion instants but different
// sequence numbers, so it reorders same-instant events: Fig 4's printed
// coll/vanilla ratio @256 moved from 17.3 to 17.1. The queue is a
// sim::SlotFifo, so a resource that has reached its peak depth stops
// allocating.
#pragma once

#include <cstdint>
#include <utility>

#include "sim/engine.hpp"
#include "sim/func.hpp"
#include "sim/slot_fifo.hpp"

namespace dpar::sim {

class FifoResource {
 public:
  using Callback = UniqueFunction;

  explicit FifoResource(Engine& eng) : eng_(eng) {}

  FifoResource(const FifoResource&) = delete;
  FifoResource& operator=(const FifoResource&) = delete;

  /// Enqueue a job needing `service` time; `done` fires when it completes.
  void submit(Time service, Callback done) {
    queue_.push_back(Job{service, std::move(done)});
    total_jobs_++;
    if (!busy_) start_next();
  }

  bool busy() const { return busy_; }
  std::size_t queue_length() const { return queue_.size(); }
  std::uint64_t total_jobs() const { return total_jobs_; }
  /// Total time this resource has spent serving (utilization numerator).
  Time busy_time() const { return busy_time_; }

 private:
  struct Job {
    Time service = 0;
    Callback done;
  };

  void start_next() {
    if (queue_.empty()) {
      busy_ = false;
      return;
    }
    busy_ = true;
    Job job = queue_.pop_front();
    busy_time_ += job.service;
    // One job is in service at a time, so its continuation parks in a member
    // slot and the engine lambda captures only `this` — re-capturing the
    // 72-byte Callback would spill past the engine's inline buffer.
    current_done_ = std::move(job.done);
    eng_.after(job.service, [this] {
      // Finish the current job, then pull the next one; completing before
      // starting keeps queue-length observations consistent.
      Callback done = std::move(current_done_);
      done();
      start_next();
    });
  }

  Engine& eng_;
  SlotFifo<Job> queue_;
  Callback current_done_;
  bool busy_ = false;
  Time busy_time_ = 0;
  std::uint64_t total_jobs_ = 0;
};

}  // namespace dpar::sim
