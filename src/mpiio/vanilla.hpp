// Vanilla MPI-IO: every process issues its own synchronous requests directly
// to the parallel file system, in program order (Strategy 1 of §II).
#pragma once

#include <string>

#include "mpi/job.hpp"
#include "mpiio/env.hpp"

namespace dpar::mpiio {

struct PieceWalk;

class VanillaDriver : public mpi::IoDriver {
 public:
  explicit VanillaDriver(IoEnv env) : env_(env) {}

  void io(mpi::Process& proc, const mpi::IoCall& call,
          sim::UniqueFunction done) override;

  std::string name() const override { return "vanilla-mpiio"; }

 protected:
  /// Same request path as io() but without the ADIO observation hook — for
  /// wrappers (DualPar) that already observed the application call and only
  /// delegate the transfer.
  void raw_io(mpi::Process& proc, const mpi::IoCall& call,
              sim::UniqueFunction done);

  /// Outcome of every transfer issued through raw_io. Wrappers override to
  /// feed their mode controller (DualPar -> EMC error EWMA); the base driver
  /// only keeps the fault ledger via note_io_status.
  virtual void on_raw_status(fault::Status st) { (void)st; }

  IoEnv env_;

 private:
  /// Issue the next contiguous piece of `w` (one heap control block per
  /// strided call; per-piece callbacks capture only the block pointer).
  void issue_piece(PieceWalk* w);
};

}  // namespace dpar::mpiio
