#include "cache/global_cache.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <stdexcept>
#include <utility>

#include "sim/fanin.hpp"

namespace dpar::cache {

GlobalCache::GlobalCache(sim::Engine& eng, net::Network& net,
                         std::vector<net::NodeId> home_nodes, CacheParams params)
    : eng_(eng), net_(net), home_nodes_(std::move(home_nodes)), params_(params) {
  if (home_nodes_.empty()) throw std::invalid_argument("GlobalCache: no home nodes");
}

namespace {
/// Iterate chunk-local slices of a file-space segment.
template <typename Fn>
void slices(std::uint64_t chunk_bytes, const pfs::Segment& seg, Fn&& fn) {
  std::uint64_t off = seg.offset;
  std::uint64_t remaining = seg.length;
  while (remaining > 0) {
    const std::uint64_t index = off / chunk_bytes;
    const std::uint64_t within = off % chunk_bytes;
    const std::uint64_t take = std::min(remaining, chunk_bytes - within);
    fn(index, within, take);
    off += take;
    remaining -= take;
  }
}
}  // namespace

bool GlobalCache::covers(pfs::FileId file, const pfs::Segment& seg) const {
  bool all = true;
  slices(params_.chunk_bytes, seg,
         [&](std::uint64_t index, std::uint64_t within, std::uint64_t take) {
           if (!all) return;
           auto it = chunks_.find(ChunkKey{file, index});
           if (it == chunks_.end() || !it->second.valid.covers(within, within + take))
             all = false;
         });
  return all;
}

void GlobalCache::insert(pfs::FileId file, const pfs::Segment& seg, std::uint64_t owner,
                         bool prefetched, net::NodeId home_hint) {
  slices(params_.chunk_bytes, seg,
         [&](std::uint64_t index, std::uint64_t within, std::uint64_t take) {
           const ChunkKey key{file, index};
           const bool existed = chunks_.count(key) != 0;
           ChunkMeta& m = chunks_[key];
           if (!existed) m.home = resolve_home(key, home_hint);
           if (m.valid.empty()) {
             m.owner = owner;
             m.prefetched = prefetched;
             m.referenced = false;
           }
           credit_valid(m, m.valid.add(within, within + take));
           m.last_ref = eng_.now();
           if (params_.capacity_per_node > 0) enforce_capacity(m.home);
         });
}

void GlobalCache::write(pfs::FileId file, const pfs::Segment& seg, std::uint64_t owner,
                        net::NodeId home_hint) {
  slices(params_.chunk_bytes, seg,
         [&](std::uint64_t index, std::uint64_t within, std::uint64_t take) {
           const ChunkKey key{file, index};
           const bool existed = chunks_.count(key) != 0;
           ChunkMeta& m = chunks_[key];
           if (!existed) m.home = resolve_home(key, home_hint);
           if (m.valid.empty()) m.owner = owner;
           credit_valid(m, m.valid.add(within, within + take));
           if (m.dirty.empty()) dirty_chunks_[file].insert(index);
           m.dirty.add(within, within + take);
           m.last_ref = eng_.now();
           m.referenced = true;
           m.prefetched = false;
           if (params_.capacity_per_node > 0) enforce_capacity(m.home);
         });
}

std::uint64_t GlobalCache::reference(pfs::FileId file, const pfs::Segment& seg) {
  std::uint64_t newly_used = 0;
  slices(params_.chunk_bytes, seg,
         [&](std::uint64_t index, std::uint64_t within, std::uint64_t take) {
           auto it = chunks_.find(ChunkKey{file, index});
           if (it == chunks_.end()) return;
           ChunkMeta& m = it->second;
           m.last_ref = eng_.now();
           if (m.prefetched && !m.referenced) newly_used += m.valid.total_bytes();
           m.referenced = true;
           (void)within;
           (void)take;
         });
  return newly_used;
}

std::vector<pfs::Segment> GlobalCache::dirty_segments(pfs::FileId file) const {
  // The per-file index walks only the chunks that are actually dirty, in
  // ascending chunk order; within a chunk the ranges are already sorted, so
  // the concatenation is sorted and coalesces exactly like the offset-keyed
  // merge map this replaces.
  std::vector<pfs::Segment> out;
  auto f = dirty_chunks_.find(file);
  if (f == dirty_chunks_.end()) return out;
  for (std::uint64_t index : f->second) {
    auto it = chunks_.find(ChunkKey{file, index});
    if (it == chunks_.end()) continue;
    const std::uint64_t base = index * params_.chunk_bytes;
    for (const auto& r : it->second.dirty.ranges()) {
      const std::uint64_t b = base + r.begin;
      if (!out.empty() && out.back().end() == b) {
        out.back().length += r.length();
      } else {
        out.push_back(pfs::Segment{b, r.length()});
      }
    }
  }
  return out;
}

std::vector<std::pair<pfs::FileId, pfs::Segment>> GlobalCache::all_dirty_segments() const {
  std::vector<pfs::FileId> files;
  files.reserve(dirty_chunks_.size());
  // dpar-lint: allow(unordered-iter) keys are collected then sorted before use
  for (const auto& [f, idx] : dirty_chunks_) files.push_back(f);
  std::sort(files.begin(), files.end());
  std::vector<std::pair<pfs::FileId, pfs::Segment>> out;
  for (pfs::FileId f : files)
    for (const auto& seg : dirty_segments(f)) out.emplace_back(f, seg);
  return out;
}

void GlobalCache::clear_dirty(pfs::FileId file, const pfs::Segment& seg) {
  slices(params_.chunk_bytes, seg,
         [&](std::uint64_t index, std::uint64_t within, std::uint64_t take) {
           auto it = chunks_.find(ChunkKey{file, index});
           if (it == chunks_.end()) return;
           if (it->second.dirty.remove(within, within + take) > 0 &&
               it->second.dirty.empty())
             unindex_dirty(file, index);
         });
}

std::uint64_t GlobalCache::invalidate_server(const pfs::StripeLayout& layout,
                                             std::uint32_t server) {
  std::uint64_t invalidated = 0;
  // dpar-lint: allow(unordered-iter) commutative byte sum + whole-table erase;
  // no per-chunk effect depends on visit order
  for (auto it = chunks_.begin(); it != chunks_.end();) {
    ChunkMeta& meta = it->second;
    const std::uint64_t chunk_base = it->first.index * params_.chunk_bytes;
    // Walk the chunk stripe unit by stripe unit; units striped to the failed
    // server lose their clean valid bytes (dirty bytes are the application's
    // own data and survive for write-back).
    for (std::uint64_t off = chunk_base - chunk_base % layout.unit_bytes;
         off < chunk_base + params_.chunk_bytes; off += layout.unit_bytes) {
      if (layout.server_of(off) != server) continue;
      const std::uint64_t lo =
          std::max(off, chunk_base) - chunk_base;  // chunk-local
      const std::uint64_t hi =
          std::min(off + layout.unit_bytes, chunk_base + params_.chunk_bytes) -
          chunk_base;
      if (!meta.valid.intersects(lo, hi)) continue;
      // Clean bytes in [lo, hi) = valid minus dirty: remove the whole window,
      // then restore the dirty intersection.
      std::uint64_t lost = meta.valid.remove(lo, hi);
      for (const auto& d : meta.dirty.ranges()) {
        const std::uint64_t dlo = std::max(d.begin, lo);
        const std::uint64_t dhi = std::min(d.end, hi);
        if (dlo < dhi) lost -= meta.valid.add(dlo, dhi);
      }
      invalidated += lost;
      debit_valid(meta, lost);
    }
    if (meta.valid.empty() && meta.dirty.empty()) {
      it = chunks_.erase(it);
    } else {
      ++it;
    }
  }
  return invalidated;
}

std::uint64_t GlobalCache::evict_idle(sim::Time now) {
  std::uint64_t evicted = 0;
  // dpar-lint: allow(unordered-iter) commutative byte sum + predicate erase;
  // the surviving set is independent of visit order
  for (auto it = chunks_.begin(); it != chunks_.end();) {
    if (it->second.dirty.empty() && now - it->second.last_ref >= params_.idle_eviction) {
      const std::uint64_t bytes = it->second.valid.total_bytes();
      evicted += bytes;
      debit_valid(it->second, bytes);
      it = chunks_.erase(it);
    } else {
      ++it;
    }
  }
  return evicted;
}

void GlobalCache::drop_clean(std::vector<std::uint64_t> owners) {
  std::sort(owners.begin(), owners.end());
  // dpar-lint: allow(unordered-iter) predicate erase; the surviving set is
  // independent of visit order
  for (auto it = chunks_.begin(); it != chunks_.end();) {
    if (it->second.dirty.empty() &&
        std::binary_search(owners.begin(), owners.end(), it->second.owner)) {
      debit_valid(it->second, it->second.valid.total_bytes());
      it = chunks_.erase(it);
    } else {
      ++it;
    }
  }
}

void GlobalCache::transfer(pfs::FileId file, const pfs::Segment& seg,
                           net::NodeId from_node, bool to_cache,
                           sim::UniqueFunction done) {
  // Group bytes by (placed) home node and move one message per home.
  std::map<net::NodeId, std::uint64_t> per_home;
  slices(params_.chunk_bytes, seg,
         [&](std::uint64_t index, std::uint64_t, std::uint64_t take) {
           per_home[placed_home(ChunkKey{file, index})] += take;
         });
  if (per_home.empty()) {
    eng_.after(0, std::move(done));
    return;
  }
  auto* fan = sim::make_fanin(per_home.size(), std::move(done));
  for (const auto& [home, bytes] : per_home) {
    if (to_cache) {
      // put: payload travels to the home node.
      net_.send(from_node, home, bytes + 64, [fan] { fan->complete(); });
    } else {
      // get: small request, payload comes back.
      const auto h = home;
      const auto b = bytes;
      net_.send(from_node, h, 64, [this, h, from_node, b, fan] {
        net_.send(h, from_node, b + 64, [fan] { fan->complete(); });
      });
    }
  }
}

void GlobalCache::enforce_capacity(net::NodeId node) {
  // The usage check is O(1) via the per-node counters (it runs on every
  // capacity-bounded insert slice); the victim scan below stays the full
  // chunk-table walk, preserving the exact first-smallest-last_ref
  // tie-breaking of the original — eviction order is part of the
  // deterministic output. Dirty and just-touched chunks are spared.
  std::uint64_t used = node_bytes(node);
  while (used > params_.capacity_per_node) {
    const ChunkKey* victim = nullptr;
    sim::Time oldest = INT64_MAX;
    // Smallest-(last_ref, key) victim: the key tie-break makes the choice
    // independent of the unordered table's hash order, so eviction order —
    // which is part of the deterministic output — never leaks it.
    // dpar-lint: allow(unordered-iter) min-scan with deterministic tie-break
    for (const auto& [key, meta] : chunks_) {
      if (meta.home != node || !meta.dirty.empty()) continue;
      if (meta.last_ref < oldest ||
          (meta.last_ref == oldest && victim != nullptr && key < *victim)) {
        oldest = meta.last_ref;
        victim = &key;
      }
    }
    if (victim == nullptr) return;  // everything left is dirty
    auto it = chunks_.find(*victim);
    used -= it->second.valid.total_bytes();
    debit_valid(it->second, it->second.valid.total_bytes());
    chunks_.erase(it);
    ++capacity_evictions_;
  }
}

std::uint64_t GlobalCache::unused_prefetched_bytes(
    const std::vector<ChunkKey>& keys) const {
  std::uint64_t sum = 0;
  for (const ChunkKey& k : keys) {
    auto it = chunks_.find(k);
    if (it != chunks_.end() && it->second.prefetched && !it->second.referenced)
      sum += it->second.valid.total_bytes();
  }
  return sum;
}

}  // namespace dpar::cache
