#include "mpi/job.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>
#include <utility>

#include "sim/rng.hpp"

namespace dpar::mpi {

Process::Process(sim::Engine& eng, Job& job, std::uint32_t rank, std::uint32_t global_id,
                 std::unique_ptr<Program> prog, cluster::ComputeNode& node)
    : eng_(eng), job_(job), rank_(rank), global_id_(global_id), prog_(std::move(prog)),
      node_(node) {
  ctx_.rank = rank_;
  ctx_.ghost = false;
}

void Process::start() {
  ctx_.nprocs = job_.nprocs();
  advance();
}

void Process::set_suspended(bool s) {
  if (s) {
    assert(state_ == ProcState::kBlockedIo);
    state_ = ProcState::kSuspended;
  } else if (state_ == ProcState::kSuspended) {
    state_ = ProcState::kBlockedIo;
  }
}

double Process::recent_io_bandwidth() const {
  const std::uint64_t bytes = bytes_read_ + bytes_written_;
  if (io_time_ <= 0 || bytes == 0) return 0.0;
  return static_cast<double>(bytes) / sim::to_seconds(io_time_);
}

void Process::advance() {
  if (state_ == ProcState::kFinished) return;
  state_ = ProcState::kRunning;
  Op op = prog_->next(ctx_);
  std::visit([this](auto&& o) { handle(std::move(o)); }, std::move(op));
}

void Process::handle(OpCompute op) {
  compute_time_ += op.duration;
  node_.run(op.duration, cluster::CpuPriority::kNormal, [this] { advance(); });
}

void Process::handle(OpIo op) {
  state_ = ProcState::kBlockedIo;
  const sim::Time t0 = eng_.now();
  auto call = std::make_shared<IoCall>(std::move(op.call));
  job_.driver().io(*this, *call, [this, t0, call] {
    io_time_ += eng_.now() - t0;
    record_latency(call->is_write, eng_.now() - t0);
    if (call->is_write) {
      bytes_written_ += call->total_bytes();
    } else {
      bytes_read_ += call->total_bytes();
      // Synthesize the content "seen" by the application so data-dependent
      // programs can compute their next offsets in the normal run.
      if (!call->segments.empty())
        ctx_.last_read_value =
            sim::content_hash(call->file, call->segments.front().offset);
    }
    advance();
  });
}

void Process::handle(OpBarrier) {
  state_ = ProcState::kAtBarrier;
  job_.driver().on_barrier_enter(*this);
  job_.barrier_enter(*this, [this] { advance(); });
}

void Process::handle(OpEnd) {
  state_ = ProcState::kFinished;
  finish_time_ = eng_.now();
  // Account the completion first so the driver's on_process_end observes
  // job().finished() == true for the last rank (it triggers the final
  // write-back flush on that condition).
  job_.process_finished(*this);
  job_.driver().on_process_end(*this);
}

Job::Job(sim::Engine& eng, std::uint32_t id, std::string name, IoDriver& driver)
    : eng_(eng), id_(id), name_(std::move(name)), driver_(driver) {}

void Job::spawn(std::uint32_t nprocs, const std::vector<cluster::ComputeNode*>& nodes,
                const ProgramFactory& factory, std::uint32_t first_global_id) {
  if (nodes.empty()) throw std::invalid_argument("Job::spawn: no nodes");
  for (std::uint32_t r = 0; r < nprocs; ++r) {
    // Block distribution (MPI's default placement): consecutive ranks share
    // a node, so ranks whose data interleaves at fine grain are co-located.
    const std::size_t idx = static_cast<std::size_t>(r) * nodes.size() / nprocs;
    cluster::ComputeNode& node = *nodes[std::min(idx, nodes.size() - 1)];
    procs_.push_back(std::make_unique<Process>(eng_, *this, r, first_global_id + r,
                                               factory(r), node));
  }
}

void Job::start() {
  start_time_ = eng_.now();
  for (auto& p : procs_) p->start();
}

sim::Time Job::total_io_time() const {
  sim::Time t = 0;
  for (const auto& p : procs_) t += p->io_time();
  return t;
}

sim::Time Job::total_compute_time() const {
  sim::Time t = 0;
  for (const auto& p : procs_) t += p->compute_time();
  return t;
}

std::uint64_t Job::total_bytes() const {
  std::uint64_t b = 0;
  for (const auto& p : procs_) b += p->bytes_read() + p->bytes_written();
  return b;
}

void Job::barrier_enter(Process& proc, sim::UniqueFunction resume) {
  barrier_waiters_.push_back(BarrierWaiter{proc.rank(), std::move(resume)});
  release_barrier_if_ready();
}

void Job::release_barrier_if_ready() {
  const std::uint32_t live = nprocs() - finished_;
  if (live == 0 || barrier_waiters_.size() < live) return;
  // Dissemination-barrier cost: ~2 * ceil(log2 P) network hops at TCP/GigE
  // round-trip latency (measured MPICH2 barriers on Ethernet clusters run
  // 1-3 ms at 64 ranks).
  const int hops = 2 * std::bit_width(std::uint32_t{live > 1 ? live - 1 : 1});
  const sim::Time cost = sim::usec(150) * hops;
  auto waiters = std::move(barrier_waiters_);
  barrier_waiters_.clear();
  // Canonical release order: sort by rank (the resume order decides how
  // same-timestamp I/O lands at the servers).
  std::sort(waiters.begin(), waiters.end(),
            [](const BarrierWaiter& a, const BarrierWaiter& b) { return a.rank < b.rank; });
  // One release event for the whole round: the resumes would get consecutive
  // sequence numbers anyway, so batching preserves order while cutting P
  // heap entries to 1 per barrier.
  std::vector<sim::UniqueFunction> resumes;
  resumes.reserve(waiters.size());
  for (BarrierWaiter& w : waiters) resumes.push_back(std::move(w.resume));
  eng_.after_all(cost, std::move(resumes));
}

bool Job::all_parked() const {
  for (const auto& p : procs_) {
    switch (p->state()) {
      case ProcState::kSuspended:
      case ProcState::kAtBarrier:
      case ProcState::kFinished:
        continue;
      default:
        return false;
    }
  }
  return nprocs() > 0;
}

void Job::process_finished(Process& proc) {
  (void)proc;
  ++finished_;
  // A finishing process may complete a barrier the rest are waiting on.
  release_barrier_if_ready();
  if (finished_ == nprocs()) completion_time_ = eng_.now();
}

sim::Histogram Job::read_latency() const {
  sim::Histogram h;
  for (const auto& p : procs_) h.merge(p->read_latency());
  return h;
}

sim::Histogram Job::write_latency() const {
  sim::Histogram h;
  for (const auto& p : procs_) h.merge(p->write_latency());
  return h;
}

}  // namespace dpar::mpi
