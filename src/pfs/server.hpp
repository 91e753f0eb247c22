// PVFS2-style data server: owns a block device, an extent table mapping
// (file, server-local offset) to LBNs, and a request-handling service thread.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "disk/device.hpp"
#include "fault/status.hpp"
#include "net/network.hpp"
#include "pfs/layout.hpp"
#include "pfs/server_cache.hpp"
#include "sim/func.hpp"
#include "sim/pool.hpp"
#include "sim/resource.hpp"

namespace dpar::fault {
class FaultInjector;
}

namespace dpar::pfs {

/// Server-side completion of one list-I/O request; carries the worst outcome
/// across the request's runs.
using ReplyFn = sim::UniqueFn<void(fault::Status)>;

/// A list-I/O request as received by a data server: runs are in the file's
/// server-local address space, already sorted by the client.
struct ServerIoRequest {
  FileId file = 0;
  bool is_write = false;
  std::uint64_t context = 0;  ///< I/O context for the disk scheduler
  std::vector<ServerRun> runs;
  ReplyFn done;  ///< invoked at the server when disk I/O completes

  std::uint64_t total_bytes() const {
    std::uint64_t sum = 0;
    for (const auto& r : runs) sum += r.length;
    return sum;
  }
};

/// Control block of one request at a data server, pooled per DataServer:
/// the request itself plus the fan-in over its runs. The fault-free client
/// path fills one directly (DataServer::acquire_op) and the request message
/// captures only the server and this pointer; `req.runs` keeps its capacity
/// across reuse, so steady-state requests allocate nothing.
struct ServerOp {
  ServerIoRequest req;
  /// Runs (or coalesced disk spans, counted per run) still to finish.
  std::size_t outstanding = 0;
  /// Worst outcome across the request's runs.
  fault::Status status = fault::Status::kOk;
  /// Set only when fault injection is armed: the reply is squashed if the
  /// server crashed (changed epoch) while the disk work was in flight.
  bool check_epoch = false;
  std::uint64_t epoch = 0;
};

struct ServerParams {
  /// PVFS2 data servers issue all disk I/O from one user-space server
  /// process, so the kernel disk scheduler sees a single I/O context and can
  /// only reorder what is simultaneously queued (§II: "the disk scheduler
  /// sees a limited number of outstanding requests"). Set false to tag disk
  /// requests with the originating MPI process instead (kernel-level I/O
  /// path; used by the ablation bench).
  bool single_disk_context = true;
  /// Server page cache with read-ahead; capacity 0 (the default) keeps it
  /// off, matching the paper's cache-flushed runs.
  ServerCacheParams page_cache;
};

class DataServer {
 public:
  DataServer(sim::Engine& eng, net::NodeId node, std::unique_ptr<disk::BlockDevice> dev,
             ServerParams params = {});

  /// Reserve an on-disk extent of `bytes` for `file`. The allocator is a
  /// bump allocator with an inter-file gap, so files created in sequence
  /// occupy disjoint disk regions — seeks between two programs' files are
  /// then long, as on a real aged file system.
  void allocate(FileId file, std::uint64_t bytes);

  /// Handle a request that has already been delivered to this node.
  /// Wraps it into a pooled ServerOp; used by the client's retrying path and
  /// by repair. The request travels inside the message closure, so a dropped
  /// message destroys it unhandled.
  void handle(ServerIoRequest req);
  /// The allocation-free form: `op` came from this server's acquire_op(),
  /// with `op->req` filled in. The server releases it after the reply.
  void handle(ServerOp* op);
  /// A pooled op for handle(ServerOp*). Its `req` holds whatever the last
  /// request left there: the caller overwrites every field.
  ServerOp* acquire_op() { return ops_.acquire(); }

  // ---- Fault injection ----
  /// Arm fault injection for this server and its block device.
  void set_fault_injector(fault::FaultInjector* inj);
  /// Crash: refuse new requests and lose all accepted-but-unreplied work
  /// (their replies are squashed; clients find out by timing out).
  void crash();
  /// Restart after a crash with an empty queue.
  void restart();
  bool is_down() const { return down_; }

  net::NodeId node() const { return node_; }
  disk::BlockDevice& device() { return *dev_; }
  ServerCache& page_cache() { return cache_; }
  /// The blktrace of the underlying device (first member for RAID).
  disk::BlkTrace& trace();
  /// Keep (or drop) the per-dispatch event lists of every member disk; the
  /// summary counters are kept either way.
  void set_keep_trace_events(bool keep);
  /// Bytes served to clients (from disk or the page cache).
  std::uint64_t bytes_read() const { return bytes_read_; }
  std::uint64_t bytes_written() const { return bytes_written_; }
  /// Bytes actually read from the disk (includes read-ahead).
  std::uint64_t disk_bytes_read() const { return disk_bytes_read_; }
  std::uint64_t requests_handled() const { return requests_; }

 private:
  struct Extent {
    std::uint64_t base_lba;
    std::uint64_t sectors;
  };
  /// Unallocated space the bump allocator leaves between two files.
  static constexpr std::uint64_t kInterFileGapBytes = 1ull << 20;

  /// Service-thread stage: decompose the op's runs into disk requests.
  void start_disk_io_(ServerOp* op);
  /// `n` runs of `op` finished with `st`; replies and releases the op when
  /// none remain.
  void complete_runs_(ServerOp* op, fault::Status st, std::uint64_t n);
  /// Deliver a finished request's reply, or squash it when the server
  /// crashed (epoch changed) since the request was accepted.
  void deliver_reply(ReplyFn done, fault::Status st, std::uint64_t epoch);

  sim::Engine& eng_;
  net::NodeId node_;
  std::unique_ptr<disk::BlockDevice> dev_;
  ServerParams params_;
  ServerCache cache_;
  sim::FifoResource service_;
  fault::FaultInjector* injector_ = nullptr;
  bool down_ = false;
  /// Bumped on every crash; requests remember the epoch they were accepted in
  /// and replies from a dead epoch are squashed (queue loss without touching
  /// the disk scheduler's state).
  std::uint64_t epoch_ = 0;
  std::unordered_map<FileId, Extent> extents_;
  std::uint64_t next_free_sector_ = 2048;  ///< leave a small metadata region
  std::uint64_t next_req_id_ = 1;
  std::uint64_t bytes_read_ = 0;
  std::uint64_t bytes_written_ = 0;
  std::uint64_t disk_bytes_read_ = 0;
  std::uint64_t requests_ = 0;
  sim::Pool<ServerOp> ops_;
};

}  // namespace dpar::pfs
