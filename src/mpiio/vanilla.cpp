#include "mpiio/vanilla.hpp"

#include <cstddef>
#include <utility>

namespace dpar::mpiio {

/// State of one piecewise strided call: the call is walked segment by
/// segment, each round trip capturing just this block's pointer.
struct PieceWalk {
  VanillaDriver* drv;
  mpi::Process* proc;
  mpi::IoCall call;
  std::size_t index;
  sim::UniqueFunction done;
};

void VanillaDriver::io(mpi::Process& proc, const mpi::IoCall& call,
                       sim::UniqueFunction done) {
  if (env_.observer)
    env_.observer->observe(proc.job().id(), call.file, call.segments,
                           env_.fs.engine().now());
  raw_io(proc, call, std::move(done));
}

void VanillaDriver::raw_io(mpi::Process& proc, const mpi::IoCall& call,
                           sim::UniqueFunction done) {
  // Independent strided I/O issues one contiguous piece per round trip ("a
  // process issues its synchronous read requests one at a time", §II): the
  // behaviour DualPar's request aggregation removes.
  if (call.segments.size() > 1) {
    issue_piece(new PieceWalk{this, &proc, call, 0, std::move(done)});
    return;
  }
  pfs::Client& client = env_.clients.for_node(proc.node().id());
  client.io(call.file, call.segments, call.is_write, proc.global_id(),
            [this, done = std::move(done)](std::uint64_t, fault::Status st) mutable {
              note_io_status(env_, st);
              on_raw_status(st);
              done();
            });
}

void VanillaDriver::issue_piece(PieceWalk* w) {
  if (w->index >= w->call.segments.size()) {
    sim::UniqueFunction done = std::move(w->done);
    delete w;
    done();
    return;
  }
  pfs::Client& client = env_.clients.for_node(w->proc->node().id());
  const pfs::Segment& seg = w->call.segments[w->index];
  client.io(w->call.file, {&seg, 1}, w->call.is_write, w->proc->global_id(),
            [w](std::uint64_t, fault::Status st) {
              // A failed piece is reported and the walk continues: the
              // application sees the error but the benchmark keeps running.
              note_io_status(w->drv->env_, st);
              w->drv->on_raw_status(st);
              ++w->index;
              w->drv->issue_piece(w);
            });
}

}  // namespace dpar::mpiio
