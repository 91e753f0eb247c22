#include "pfs/server.hpp"

#include <memory>
#include <stdexcept>
#include <utility>

#include "fault/injector.hpp"

namespace dpar::pfs {

namespace {
constexpr sim::Time kRequestBaseCost = sim::usec(30);  ///< per-message handling CPU
constexpr sim::Time kPerRunCost = sim::usec(3);        ///< per list-I/O run CPU
}  // namespace

DataServer::DataServer(sim::Engine& eng, net::NodeId node,
                       std::unique_ptr<disk::BlockDevice> dev, ServerParams params)
    : eng_(eng),
      node_(node),
      dev_(std::move(dev)),
      params_(params),
      cache_(params.page_cache),
      service_(eng) {}

void DataServer::allocate(FileId file, std::uint64_t bytes) {
  if (extents_.count(file) != 0) return;  // idempotent
  const std::uint64_t sectors = disk::bytes_to_sectors(bytes);
  Extent e{next_free_sector_, sectors};
  next_free_sector_ += sectors + disk::bytes_to_sectors(kInterFileGapBytes);
  if (next_free_sector_ > dev_->capacity_sectors())
    throw std::runtime_error("DataServer: disk full");
  extents_.emplace(file, e);
}

disk::BlkTrace& DataServer::trace() {
  if (auto* d = dynamic_cast<disk::DiskDevice*>(dev_.get())) return d->trace();
  auto* raid = dynamic_cast<disk::Raid0Device*>(dev_.get());
  return raid->member(0).trace();
}

void DataServer::set_keep_trace_events(bool keep) {
  if (auto* raid = dynamic_cast<disk::Raid0Device*>(dev_.get())) {
    raid->member(0).trace().set_keep_events(keep);
    raid->member(1).trace().set_keep_events(keep);
    return;
  }
  trace().set_keep_events(keep);
}

void DataServer::set_fault_injector(fault::FaultInjector* inj) {
  injector_ = inj;
  dev_->set_fault_injector(inj, node_);
}

void DataServer::crash() {
  if (down_) return;
  down_ = true;
  ++epoch_;
  if (injector_) injector_->note_server_state(node_, true);
}

void DataServer::restart() {
  if (!down_) return;
  down_ = false;
  if (injector_) injector_->note_server_state(node_, false);
}

void DataServer::deliver_reply(ReplyFn done, fault::Status st, std::uint64_t epoch) {
  if (epoch != epoch_) {
    // The server crashed after accepting this request: its queued work is
    // gone and the reply is never sent. The client's timeout fires instead.
    if (injector_) ++injector_->counters().server_lost_completions;
    return;
  }
  if (done) done(st);
}

void DataServer::handle(ServerIoRequest req) {
  ServerOp* op = ops_.acquire();
  op->req = std::move(req);
  handle(op);
}

void DataServer::handle(ServerOp* op) {
  if (down_) {
    // A dead server answers nothing: the request's callback is destroyed
    // unfired and the client times out.
    if (injector_) ++injector_->counters().server_refused_requests;
    op->req.done.reset();
    ops_.release(op);
    return;
  }
  ++requests_;
  sim::Time cpu =
      kRequestBaseCost + kPerRunCost * static_cast<sim::Time>(op->req.runs.size());
  op->outstanding = 0;
  op->status = fault::Status::kOk;
  op->check_epoch = injector_ != nullptr;
  if (injector_) {
    cpu += injector_->server_stall(node_);
    op->epoch = epoch_;
  }
  // Request handling passes through the server's service thread first, then
  // fans out to the disk.
  service_.submit(cpu, [this, op] { start_disk_io_(op); });
}

void DataServer::complete_runs_(ServerOp* op, fault::Status st, std::uint64_t n) {
  op->status = fault::combine(op->status, st);
  op->outstanding -= n;
  if (op->outstanding != 0) return;
  ReplyFn done = std::move(op->req.done);
  const fault::Status out = op->status;
  const bool check_epoch = op->check_epoch;
  const std::uint64_t epoch = op->epoch;
  ops_.release(op);
  if (check_epoch) {
    deliver_reply(std::move(done), out, epoch);
  } else if (done) {
    done(out);
  }
}

void DataServer::start_disk_io_(ServerOp* op) {
  const ServerIoRequest& req = op->req;
  auto it = extents_.find(req.file);
  if (it == extents_.end()) throw std::runtime_error("DataServer::handle: unknown file");
  const Extent extent = it->second;

  if (req.is_write) {
    bytes_written_ += req.total_bytes();
  } else {
    bytes_read_ += req.total_bytes();
  }

  if (req.runs.empty()) {
    op->outstanding = 1;
    complete_runs_(op, fault::Status::kOk, 1);
    return;
  }
  // The +1 keeps op alive through the loop even if every run is a cache hit
  // (the matching completion is below, after the loop).
  op->outstanding = req.runs.size() + 1;
  // Runs that are exactly adjacent on this server's extent (a striped client
  // segment lands here as a train of locally-contiguous chunks) coalesce
  // into one disk request, so the train costs one completion event per
  // (server, request) span instead of one per chunk. Each disk request is
  // submitted in run order as soon as the next miss cannot extend it.
  disk::Request tail;
  // Byte span and merged-run count of `tail`, for the coalesced cache insert
  // and fan-in; tail_runs == 0 means no request is open.
  std::uint64_t tail_offset = 0, tail_end = 0, tail_runs = 0;
  auto seal_tail = [this, op, &tail, &tail_offset, &tail_end, &tail_runs] {
    if (tail_runs == 0) return;
    const std::uint64_t off = tail_offset, len = tail_end - tail_offset, n = tail_runs;
    tail.done = [this, op, off, len, n](fault::Status st) {
      // A failed span caches nothing: the sectors never produced data.
      if (cache_.enabled() && fault::ok(st)) cache_.insert(op->req.file, off, len);
      // One count per coalesced run keeps the fan-in identical to the
      // uncoalesced layout.
      complete_runs_(op, st, n);
    };
    tail_runs = 0;
    dev_->submit(std::move(tail));
  };
  for (const ServerRun& run : req.runs) {
    // Page cache: resident reads skip the disk entirely; misses may be
    // extended by a read-ahead window when they continue a sequential
    // stream. Writes go through to the disk and populate the cache.
    std::uint64_t length = run.length;
    if (!req.is_write && cache_.enabled()) {
      if (cache_.covers(req.file, run.local_offset, run.length)) {
        cache_.note_hit();
        complete_runs_(op, fault::Status::kOk, 1);
        continue;
      }
      cache_.note_miss();
      const std::uint64_t extent_bytes = extent.sectors * disk::kSectorBytes;
      std::uint64_t ra = cache_.readahead_hint(req.file, run.local_offset, run.length);
      if (run.local_offset + length + ra > extent_bytes)
        ra = extent_bytes > run.local_offset + length
                 ? extent_bytes - run.local_offset - length
                 : 0;
      length += ra;
    }
    if (!req.is_write) disk_bytes_read_ += length;
    const std::uint64_t lba = extent.base_lba + run.local_offset / disk::kSectorBytes;
    const std::uint64_t sectors = disk::bytes_to_sectors(length);
    if (lba + sectors > extent.base_lba + extent.sectors + 8)
      throw std::runtime_error("DataServer::handle: run beyond extent");
    if (tail_runs > 0 && tail.lba + tail.sectors == lba && tail_end == run.local_offset) {
      // Contiguous with the previous miss: grow that disk request in place.
      tail.sectors += static_cast<std::uint32_t>(sectors);
      tail_end = run.local_offset + length;
      ++tail_runs;
      continue;
    }
    seal_tail();
    tail = disk::Request{};
    tail.id = next_req_id_++;
    tail.lba = lba;
    tail.sectors = static_cast<std::uint32_t>(sectors);
    tail.is_write = req.is_write;
    tail.context = params_.single_disk_context ? 0 : req.context;
    tail_offset = run.local_offset;
    tail_end = run.local_offset + length;
    tail_runs = 1;
  }
  seal_tail();
  complete_runs_(op, fault::Status::kOk, 1);
}

}  // namespace dpar::pfs
