// N-way chunk replication: placement policies and replica addressing.
//
// The stripe layout (pfs/layout.hpp) maps every 64 KB chunk of a file to its
// *primary* data server (round-robin). This layer extends that mapping to
// `replication_factor` copies per chunk: role 0 is the primary (same server
// the unreplicated layout picks, so rf == 1 is byte-identical to the
// pre-replication stack) and roles 1..rf-1 are replicas placed by a pluggable
// policy — node-local shift, rotational (chained) declustering, or rack-aware
// spread over cluster::Node racks. Every mapping is a pure closed-form (or
// precomputed-table) function of (stripe, role), so clients, servers and the
// repair manager agree on copy locations without any metadata traffic.
#pragma once

#include <cstdint>
#include <vector>

#include "pfs/layout.hpp"

namespace dpar::replica {

enum class Placement : std::uint8_t {
  /// Replica r of a chunk lives on (primary + r) mod S: the copies of one
  /// server's chunks all land on its immediate successors, so a crash shifts
  /// its full load onto rf-1 neighbours (classic primary-copy mirroring).
  kNodeLocal = 0,
  /// Chained declustering: replicas rotate over the other S-1 servers as a
  /// function of the stripe index, so a crashed server's degraded reads and
  /// repair traffic spread over the whole cluster instead of one neighbour.
  kRotational = 1,
  /// Rack-aware: replicas prefer servers in racks the chunk does not yet
  /// occupy, so a whole-rack failure still leaves a surviving copy when
  /// rf >= 2 and there are >= 2 racks.
  kRackAware = 2,
};

enum class WriteFanout : std::uint8_t {
  /// The client sends every copy's shard itself (rf parallel streams from
  /// one NIC).
  kStar = 0,
  /// Chain replication: the client writes role r only after role r-1
  /// completed, routing each hop through the previous copy's server — one
  /// client TX stream, latency grows with the chain.
  kChain = 1,
};

constexpr const char* to_string(Placement p) {
  switch (p) {
    case Placement::kNodeLocal: return "node-local";
    case Placement::kRotational: return "rotational";
    case Placement::kRackAware: return "rack-aware";
  }
  return "?";
}

constexpr const char* to_string(WriteFanout f) {
  switch (f) {
    case WriteFanout::kStar: return "star";
    case WriteFanout::kChain: return "chain";
  }
  return "?";
}

struct ReplicaConfig {
  /// Copies per chunk. 1 (the default) disables the whole subsystem: no
  /// replica regions are allocated and no repair manager is created. The
  /// client then takes its fast path, or the retrying path with one shard
  /// per server when fault injection is armed.
  std::uint32_t replication_factor = 1;
  Placement placement = Placement::kRotational;
  WriteFanout fanout = WriteFanout::kStar;
  /// Failure domains for kRackAware; server s (and compute node n) lives in
  /// rack id mod num_racks.
  std::uint32_t num_racks = 3;
  /// Repair copy budget per scan interval (token bucket): re-replication
  /// competes with foreground traffic through the same disks and NICs, and
  /// this caps how hard it competes.
  double repair_bandwidth = 40e6;  ///< bytes/s
  /// Max repair copies in flight per tick batch.
  std::uint32_t repair_batch_chunks = 8;

  bool enabled() const { return replication_factor > 1; }

  /// Reject malformed configs loudly (rf == 0, rf > servers, zero racks,
  /// nonpositive repair budget). Throws std::invalid_argument.
  void validate(std::uint32_t num_servers) const;
};

/// The replica map of one cluster: placement tables plus the on-server
/// address geometry of every copy. Copies of a file live in per-role regions
/// inside the same per-server extent the unreplicated layout uses:
///
///   [0, P)                 role-0 (primary) bytes, legacy local offsets
///   [P + (r-1)*R, ... + R) role-r bytes, chunk k at k * unit inside it
///
/// with P = (ceil(size / (unit*S)) + 1) * unit — an upper bound on every
/// server's primary share — and R = (ceil(size / unit) + 1) * unit, sized so
/// ANY server can host ANY chunk's copy (the region is sparse: only chunks
/// the placement maps here are written). Replica-local addresses are
/// policy-independent, so placement changes never move bytes within a
/// server, and the mapping is invertible for the failover path.
class ReplicaMap {
 public:
  ReplicaMap(pfs::StripeLayout layout, ReplicaConfig cfg,
             std::vector<std::uint32_t> server_racks);

  const ReplicaConfig& config() const { return cfg_; }
  const pfs::StripeLayout& layout() const { return layout_; }
  std::uint32_t replication_factor() const { return cfg_.replication_factor; }
  std::uint32_t num_servers() const { return layout_.num_servers; }
  std::uint32_t rack_of(std::uint32_t server) const { return racks_[server]; }

  /// Data server holding copy `role` of stripe `stripe`. Role 0 is the
  /// layout's primary. Roles must be < replication_factor.
  std::uint32_t server_of(std::uint64_t stripe, std::uint32_t role) const;

  /// Server-local byte offset of file offset `off` under copy `role`.
  /// Role 0 is the legacy layout mapping.
  std::uint64_t replica_local_offset(std::uint64_t file_size, std::uint64_t off,
                                     std::uint32_t role) const;

  /// Byte length of one server's extent for a file of `size` bytes:
  /// P + (rf-1) * R (uniform across servers when rf > 1).
  std::uint64_t extent_bytes(std::uint64_t size) const;

  /// Number of stripe-unit chunks in a file of `size` bytes.
  std::uint64_t num_chunks(std::uint64_t size) const {
    return (size + layout_.unit_bytes - 1) / layout_.unit_bytes;
  }

 private:
  std::uint64_t primary_region_bytes(std::uint64_t size) const;
  std::uint64_t replica_region_bytes(std::uint64_t size) const;

  pfs::StripeLayout layout_;
  ReplicaConfig cfg_;
  std::vector<std::uint32_t> racks_;
  /// Precomputed placement targets for the policies that depend only on the
  /// primary: table_[primary * (rf-1) + (role-1)]. Rotational placement
  /// depends on the stripe index too and is computed inline.
  std::vector<std::uint32_t> table_;
};

}  // namespace dpar::replica
