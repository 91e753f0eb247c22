#include "replica/placement.hpp"

#include <stdexcept>
#include <string>

#include "sim/debug.hpp"

namespace dpar::replica {

void ReplicaConfig::validate(std::uint32_t num_servers) const {
  if (replication_factor == 0)
    throw std::invalid_argument("ReplicaConfig: replication_factor must be >= 1");
  if (replication_factor > num_servers)
    throw std::invalid_argument(
        "ReplicaConfig: replication_factor " +
        std::to_string(replication_factor) + " exceeds the " +
        std::to_string(num_servers) + " data servers");
  if (!enabled()) return;
  if (num_racks == 0)
    throw std::invalid_argument("ReplicaConfig: num_racks must be >= 1");
  if (repair_bandwidth <= 0.0)
    throw std::invalid_argument("ReplicaConfig: repair_bandwidth must be > 0");
  if (repair_batch_chunks == 0)
    throw std::invalid_argument("ReplicaConfig: repair_batch_chunks must be >= 1");
}

ReplicaMap::ReplicaMap(pfs::StripeLayout layout, ReplicaConfig cfg,
                       std::vector<std::uint32_t> server_racks)
    : layout_(layout), cfg_(cfg), racks_(std::move(server_racks)) {
  cfg_.validate(layout_.num_servers);
  if (racks_.size() < layout_.num_servers)
    throw std::invalid_argument("ReplicaMap: rack table smaller than servers");
  const std::uint32_t S = layout_.num_servers;
  const std::uint32_t rf = cfg_.replication_factor;
  if (rf <= 1 || cfg_.placement == Placement::kRotational) return;

  // kNodeLocal and kRackAware depend only on the primary: one table row per
  // primary, rf-1 targets each, chosen greedily from the primary's
  // successors. Rack-aware prefers servers whose rack the chunk's copies do
  // not occupy yet, falling back to used racks once every rack is covered.
  table_.assign(std::size_t{S} * (rf - 1), 0);
  std::vector<std::uint32_t> used_servers;
  std::vector<std::uint32_t> used_racks;
  for (std::uint32_t p = 0; p < S; ++p) {
    used_servers.assign(1, p);
    used_racks.assign(1, racks_[p]);
    for (std::uint32_t r = 1; r < rf; ++r) {
      std::uint32_t pick = (p + r) % S;
      if (cfg_.placement == Placement::kRackAware) {
        // Two passes over the successor ring: first a server in a fresh
        // rack, then (all racks used) the first unused server.
        pick = UINT32_MAX;
        for (std::uint32_t step = 1; step < S && pick == UINT32_MAX; ++step) {
          const std::uint32_t cand = (p + step) % S;
          bool taken = false, rack_taken = false;
          for (std::uint32_t u : used_servers) taken = taken || u == cand;
          for (std::uint32_t u : used_racks)
            rack_taken = rack_taken || u == racks_[cand];
          if (!taken && !rack_taken) pick = cand;
        }
        for (std::uint32_t step = 1; step < S && pick == UINT32_MAX; ++step) {
          const std::uint32_t cand = (p + step) % S;
          bool taken = false;
          for (std::uint32_t u : used_servers) taken = taken || u == cand;
          if (!taken) pick = cand;
        }
      }
      table_[std::size_t{p} * (rf - 1) + (r - 1)] = pick;
      used_servers.push_back(pick);
      used_racks.push_back(racks_[pick]);
    }
  }
}

std::uint32_t ReplicaMap::server_of(std::uint64_t stripe,
                                    std::uint32_t role) const {
  DPAR_ASSERT(role < cfg_.replication_factor,
              "replica role out of range (out-of-replica read?)");
  const std::uint32_t S = layout_.num_servers;
  const auto primary = static_cast<std::uint32_t>(stripe % S);
  if (role == 0) return primary;
  if (cfg_.placement == Placement::kRotational) {
    // Chained declustering: the rf-1 replicas of stripe k take consecutive
    // slots of the size-(S-1) successor ring, rotated by k, so each stripe
    // lands its copies on a different server subset. Distinct from the
    // primary by construction and pairwise distinct while rf <= S.
    const std::uint64_t rf1 = cfg_.replication_factor - 1;
    const std::uint64_t slot = (stripe * rf1 + (role - 1)) % (S - 1);
    return static_cast<std::uint32_t>((primary + 1 + slot) % S);
  }
  return table_[std::size_t{primary} * (cfg_.replication_factor - 1) +
                (role - 1)];
}

std::uint64_t ReplicaMap::primary_region_bytes(std::uint64_t size) const {
  // Upper bound on any server's legacy share (server_share + one slack
  // unit): full rounds plus at most one partial unit, rounded to units.
  const std::uint64_t unit = layout_.unit_bytes;
  const std::uint64_t rounds =
      (size + unit * layout_.num_servers - 1) / (unit * layout_.num_servers);
  return (rounds + 1) * unit;
}

std::uint64_t ReplicaMap::replica_region_bytes(std::uint64_t size) const {
  // One sparse slot per chunk of the whole file (+ slack unit): any server
  // can host any chunk's copy, so placement never constrains addressing.
  return (num_chunks(size) + 1) * layout_.unit_bytes;
}

std::uint64_t ReplicaMap::replica_local_offset(std::uint64_t file_size,
                                               std::uint64_t off,
                                               std::uint32_t role) const {
  DPAR_ASSERT(role < cfg_.replication_factor,
              "replica role out of range (out-of-replica read?)");
  if (role == 0) return layout_.server_local_offset(off);
  const std::uint64_t unit = layout_.unit_bytes;
  return primary_region_bytes(file_size) +
         (role - 1) * replica_region_bytes(file_size) +
         layout_.stripe_of(off) * unit + off % unit;
}

std::uint64_t ReplicaMap::extent_bytes(std::uint64_t size) const {
  return primary_region_bytes(size) +
         (cfg_.replication_factor - 1) * replica_region_bytes(size);
}

}  // namespace dpar::replica
