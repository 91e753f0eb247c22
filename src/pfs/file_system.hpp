// Parallel file system front: file creation/striping metadata plus the
// client-side request path (list I/O decomposition, per-server messages).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/network.hpp"
#include "pfs/layout.hpp"
#include "pfs/server.hpp"
#include "sim/engine.hpp"
#include "sim/func.hpp"
#include "sim/pool.hpp"

namespace dpar::replica {
class RepairManager;
}

namespace dpar::pfs {

struct FileInfo {
  FileId id = 0;
  std::string name;
  std::uint64_t size = 0;
};

/// Metadata + data-server ensemble. One instance per simulated cluster.
class FileSystem {
 public:
  FileSystem(sim::Engine& eng, net::Network& net, std::vector<DataServer*> servers,
             StripeLayout layout);

  /// Create a file of `size` bytes: allocates extents on every data server.
  FileId create(const std::string& name, std::uint64_t size);

  const FileInfo& info(FileId id) const { return files_.at(id); }
  const StripeLayout& layout() const { return layout_; }
  std::uint32_t num_servers() const { return static_cast<std::uint32_t>(servers_.size()); }
  DataServer& server(std::uint32_t i) { return *servers_[i]; }
  net::Network& network() { return net_; }
  sim::Engine& engine() { return eng_; }

  /// Arm fault injection: clients switch to the retrying request path
  /// (per-request timeout, capped backoff). Null (the default), without
  /// replication, keeps the fan-in fast path.
  void set_fault_injector(fault::FaultInjector* inj) { injector_ = inj; }
  fault::FaultInjector* fault_injector() { return injector_; }

  /// Arm n-way replication: create() allocates per-role replica regions and
  /// clients take the retrying request path with one shard set per copy
  /// (write fan-out to every copy, degraded reads with transparent
  /// failover). Null, or a manager whose config has replication_factor == 1,
  /// leaves the request path to the fault injector alone.
  void set_replicas(replica::RepairManager* r) { replicas_ = r; }
  replica::RepairManager* replicas() { return replicas_; }

 private:
  sim::Engine& eng_;
  net::Network& net_;
  std::vector<DataServer*> servers_;
  StripeLayout layout_;
  std::unordered_map<FileId, FileInfo> files_;
  FileId next_file_id_ = 1;
  fault::FaultInjector* injector_ = nullptr;
  replica::RepairManager* replicas_ = nullptr;
};

/// Completion of one client I/O call: the bytes the call covered plus its
/// outcome — the worst shard's, except that a replicated write succeeds when
/// any one copy's shard set fully succeeded. Always kOk unless fault
/// injection is armed.
using IoDoneFn = sim::UniqueFn<void(std::uint64_t, fault::Status)>;

/// Client-side PFS access from one compute node.
class Client {
 public:
  Client(FileSystem& fs, net::NodeId node) : fs_(fs), node_(node) {}

  /// List I/O: read or write `segments` of `file`. Segments are decomposed
  /// into per-server runs (order-preserving, contiguity-coalescing) and one
  /// request message goes to each involved server — per replica role when
  /// replication is on. `done(bytes, status)` fires when every shard is
  /// terminal: replied, failed definitively, failed over to another copy's
  /// shards, or out of retries.
  ///
  /// Two paths serve it. With neither fault injection nor replication armed,
  /// the fast path fans in over the replies with no timeouts and allocates
  /// nothing per call in steady state (this client's CallOp pool, each
  /// server's ServerOp pool). Otherwise the retrying path gives every shard
  /// a per-request timeout and capped exponential backoff.
  void io(FileId file, std::span<const Segment> segments, bool is_write,
          std::uint64_t context, IoDoneFn done);

  net::NodeId node() const { return node_; }
  std::uint64_t calls() const { return calls_; }

 private:
  /// Fan-in of one fault-free call over its servers' replies.
  struct CallOp {
    IoDoneFn done;
    std::uint64_t total_bytes = 0;
    std::uint32_t pending = 0;
    fault::Status status = fault::Status::kOk;  ///< worst reply so far
  };
  void reply_(CallOp* call, fault::Status st);

  FileSystem& fs_;
  net::NodeId node_;
  std::uint64_t calls_ = 0;
  /// Per-client decomposition scratch: the per-server outer vector is sized
  /// once and the send path walks only the servers a call actually touches —
  /// at 256+ servers the old per-call allocation and full-width scans
  /// dominated small requests.
  DecomposeScratch scratch_;
  sim::Pool<CallOp> call_ops_;
};

}  // namespace dpar::pfs
