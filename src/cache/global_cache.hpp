// Memcached-backed global I/O cache (§IV-D).
//
// Files are partitioned into chunks equal to the PVFS2 stripe unit (64 KB by
// default, "so that a chunk can be efficiently accessed by touching only one
// server"). Chunk homes rotate round-robin over the compute nodes. The cache
// stores metadata only — which byte ranges of each chunk are valid and which
// are dirty — since the simulation never moves real payloads. Every chunk
// carries a last-reference time tag for idle eviction, a prefetched flag for
// mis-prefetch accounting, and an owner process for quota accounting.
#pragma once

#include <cstdint>
#include <set>
#include <unordered_map>
#include <vector>

#include "cache/rangeset.hpp"
#include "net/network.hpp"
#include "pfs/layout.hpp"
#include "sim/engine.hpp"
#include "sim/func.hpp"
#include "sim/rng.hpp"

namespace dpar::cache {

struct ChunkKey {
  pfs::FileId file = 0;
  std::uint64_t index = 0;
  friend bool operator==(const ChunkKey&, const ChunkKey&) = default;
  /// (file, index) lexicographic order — the deterministic tie-break for any
  /// scan over the unordered chunk table whose result could reach output.
  friend auto operator<=>(const ChunkKey&, const ChunkKey&) = default;
};

struct ChunkKeyHash {
  std::size_t operator()(const ChunkKey& k) const {
    return static_cast<std::size_t>(
        sim::splitmix64((std::uint64_t{k.file} << 40) ^ k.index));
  }
};

struct ChunkMeta {
  RangeSet valid;   ///< byte ranges (chunk-local) present in the cache
  RangeSet dirty;   ///< subset of valid written by the application
  sim::Time last_ref = 0;
  std::uint64_t owner = 0;      ///< process id charged for the quota
  net::NodeId home = 0;         ///< compute node storing the chunk
  bool prefetched = false;      ///< loaded by pre-execution prefetch
  bool referenced = false;      ///< touched by a normal process since load
};

/// Sentinel for "no placement hint: use the static round-robin home".
inline constexpr net::NodeId kAutoHome = UINT32_MAX;

struct CacheParams {
  std::uint64_t chunk_bytes = 64 * 1024;
  sim::Time idle_eviction = sim::secs(30);
  /// Memcached memory per home node; exceeding it evicts the node's
  /// least-recently-referenced clean chunks. 0 = unbounded.
  std::uint64_t capacity_per_node = 0;
};

class GlobalCache {
 public:
  GlobalCache(sim::Engine& eng, net::Network& net, std::vector<net::NodeId> home_nodes,
              CacheParams params = {});

  /// True when every byte of `seg` is valid in the cache.
  bool covers(pfs::FileId file, const pfs::Segment& seg) const;

  /// Mark `seg` valid (after a prefetch or read-through fill). `home_hint`
  /// places newly created chunks on a specific node — CRM uses the future
  /// consumer's node so the consumption phase stays local; kAutoHome falls
  /// back to round-robin placement (the paper's default, kept as an
  /// ablation).
  void insert(pfs::FileId file, const pfs::Segment& seg, std::uint64_t owner,
              bool prefetched, net::NodeId home_hint = kAutoHome);

  /// Mark `seg` valid and dirty (application write).
  void write(pfs::FileId file, const pfs::Segment& seg, std::uint64_t owner,
             net::NodeId home_hint = kAutoHome);

  /// Record a normal-process reference to `seg` (clears prefetched flags,
  /// refreshes time tags). Returns the number of bytes that had been
  /// prefetched and are referenced for the first time.
  std::uint64_t reference(pfs::FileId file, const pfs::Segment& seg);

  /// All dirty byte ranges of `file`, as file-space segments, sorted.
  std::vector<pfs::Segment> dirty_segments(pfs::FileId file) const;
  /// Dirty ranges across all files: (file, segment) pairs sorted by file/offset.
  std::vector<std::pair<pfs::FileId, pfs::Segment>> all_dirty_segments() const;
  void clear_dirty(pfs::FileId file, const pfs::Segment& seg);

  /// Bytes currently charged to `owner` (valid bytes of chunks it owns).
  /// O(1): served from the usage counters.
  std::uint64_t owner_bytes(std::uint64_t owner) const {
    auto it = owner_valid_.find(owner);
    return it != owner_valid_.end() ? it->second : 0;
  }

  /// Crash invalidation: drop every valid-but-clean byte range that was
  /// sourced from `server`'s stripes (per `layout`). Clean cached data came
  /// off that server's disk and can no longer be trusted against it; dirty
  /// ranges are application-sourced and are retained for write-back. Returns
  /// the invalidated byte count.
  std::uint64_t invalidate_server(const pfs::StripeLayout& layout,
                                  std::uint32_t server);

  /// Drop chunks not referenced since `now - idle_eviction` (dirty chunks are
  /// retained). Returns evicted byte count.
  std::uint64_t evict_idle(sim::Time now);
  /// Drop every clean chunk owned by any of `owners` (cycle turnover), in
  /// one scan of the chunk table. `owners` may come in any order.
  void drop_clean(std::vector<std::uint64_t> owners);

  /// Transfer modelling: perform the memcached traffic for accessing `seg`
  /// of `file` from `from_node`; `done` fires when all per-home messages
  /// complete. `to_cache` selects put (true) or get (false) direction.
  void transfer(pfs::FileId file, const pfs::Segment& seg, net::NodeId from_node,
                bool to_cache, sim::UniqueFunction done);

  /// Static round-robin home (placement when no hint is given).
  net::NodeId home_node(const ChunkKey& key) const {
    return home_nodes_[key.index % home_nodes_.size()];
  }
  /// Actual home of a chunk: its recorded placement, else round-robin.
  net::NodeId placed_home(const ChunkKey& key) const {
    auto it = chunks_.find(key);
    return it != chunks_.end() ? it->second.home : home_node(key);
  }
  /// Disable placement hints entirely (ablation: the paper's round-robin).
  void set_round_robin_only(bool v) { round_robin_only_ = v; }
  const CacheParams& params() const { return params_; }
  std::uint64_t total_valid_bytes() const { return total_valid_; }
  std::uint64_t chunk_count() const { return chunks_.size(); }
  std::uint64_t capacity_evictions() const { return capacity_evictions_; }
  /// Valid bytes homed on `node`. O(1): served from the usage counters.
  std::uint64_t node_bytes(net::NodeId node) const {
    auto it = node_valid_.find(node);
    return it != node_valid_.end() ? it->second : 0;
  }

  /// Mis-prefetch accounting for one prefetch round: of the chunks in
  /// `keys`, how many bytes are still prefetched-and-never-referenced.
  std::uint64_t unused_prefetched_bytes(const std::vector<ChunkKey>& keys) const;

 private:
  net::NodeId resolve_home(const ChunkKey& key, net::NodeId hint) const {
    if (round_robin_only_ || hint == kAutoHome) return home_node(key);
    return hint;
  }
  /// Evict the node's LRU clean chunks until it fits the per-node capacity.
  void enforce_capacity(net::NodeId node);
  /// Book a valid-byte delta for a chunk into the usage counters.
  void credit_valid(const ChunkMeta& m, std::uint64_t bytes) {
    total_valid_ += bytes;
    node_valid_[m.home] += bytes;
    owner_valid_[m.owner] += bytes;
  }
  void debit_valid(const ChunkMeta& m, std::uint64_t bytes) {
    total_valid_ -= bytes;
    node_valid_[m.home] -= bytes;
    owner_valid_[m.owner] -= bytes;
  }
  /// A chunk's dirty set just became empty: drop it from the per-file index.
  void unindex_dirty(pfs::FileId file, std::uint64_t index) {
    auto f = dirty_chunks_.find(file);
    if (f == dirty_chunks_.end()) return;
    f->second.erase(index);
    if (f->second.empty()) dirty_chunks_.erase(f);
  }

  sim::Engine& eng_;
  net::Network& net_;
  std::vector<net::NodeId> home_nodes_;
  CacheParams params_;
  bool round_robin_only_ = false;
  std::uint64_t capacity_evictions_ = 0;
  std::unordered_map<ChunkKey, ChunkMeta, ChunkKeyHash> chunks_;
  // Scale indexes, kept consistent with chunks_ on every mutation. At tens
  // of thousands of cached chunks the former full-table scans behind
  // dirty_segments / owner_bytes / node_bytes / total_valid_bytes (the
  // latter two sit on every capacity-bounded insert) dominated run time.
  std::unordered_map<pfs::FileId, std::set<std::uint64_t>> dirty_chunks_;
  std::unordered_map<net::NodeId, std::uint64_t> node_valid_;
  std::unordered_map<std::uint64_t, std::uint64_t> owner_valid_;
  std::uint64_t total_valid_ = 0;
};

}  // namespace dpar::cache
