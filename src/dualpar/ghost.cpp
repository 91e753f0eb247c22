#include "dualpar/ghost.hpp"

#include <utility>
#include <variant>

namespace dpar::dualpar {

GhostRunner::GhostRunner(sim::Engine& eng, mpi::Process& proc, std::uint64_t quota,
                         sim::UniqueFunction on_pause)
    : eng_(eng),
      node_(proc.node()),
      owner_(proc.global_id()),
      quota_(quota),
      on_pause_(std::move(on_pause)),
      prog_(proc.clone_program()) {
  ctx_.rank = proc.rank();
  ctx_.nprocs = proc.job().nprocs();
  ctx_.ghost = true;
}

void GhostRunner::start(const mpi::IoCall& missed_call) {
  predicted_.push_back(missed_call);
  recorded_bytes_ += missed_call.total_bytes();
  if (recorded_bytes_ >= quota_) {
    pause();
    return;
  }
  step();
}

void GhostRunner::start() { step(); }

void GhostRunner::stop() {
  stop_requested_ = true;
  // If the ghost is mid-computation, the completion callback pauses it;
  // otherwise it is synchronously inside step() and will see the flag.
  if (!computing_ && !paused_) pause();
}

void GhostRunner::pause() {
  if (paused_) return;
  paused_ = true;
  if (on_pause_) on_pause_();
}

void GhostRunner::step() {
  while (!paused_) {
    if (stop_requested_) {
      pause();
      return;
    }
    mpi::Op op = prog_->next(ctx_);
    if (std::holds_alternative<mpi::OpCompute>(op)) {
      // Faithful emulation: the ghost performs the computation, on spare
      // cycles only.
      computing_ = true;
      node_.run(std::get<mpi::OpCompute>(op).duration, cluster::CpuPriority::kGhost,
                [this] {
                  computing_ = false;
                  if (stop_requested_) {
                    pause();
                  } else {
                    step();
                  }
                });
      return;
    }
    if (std::holds_alternative<mpi::OpIo>(op)) {
      mpi::IoCall call = std::move(std::get<mpi::OpIo>(op).call);
      if (call.is_write) continue;  // writes are buffered by the normal run
      recorded_bytes_ += call.total_bytes();
      predicted_.push_back(std::move(call));
      if (recorded_bytes_ >= quota_) {
        pause();
        return;
      }
      continue;
    }
    if (std::holds_alternative<mpi::OpBarrier>(op)) continue;  // ghosts skip syncs
    // OpEnd
    pause();
    return;
  }
}

}  // namespace dpar::dualpar
