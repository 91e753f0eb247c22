// Server-side page cache with sequential read-ahead.
//
// PVFS2 data servers sit on the kernel page cache: recently read or written
// file ranges are served from memory, and a detected sequential stream
// triggers read-ahead. The paper's evaluation *flushed* caches before every
// run ("to ensure that all data were accessed from the disk"), so the
// Testbed default keeps this disabled; enabling it shows how much of
// DualPar's benefit survives a warm, read-ahead-capable server.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <unordered_map>

#include "cache/rangeset.hpp"
#include "pfs/layout.hpp"

namespace dpar::pfs {

struct ServerCacheParams {
  std::uint64_t capacity_bytes = 0;             ///< 0 disables the cache
  std::uint64_t readahead_bytes = 512 * 1024;   ///< window appended to
                                                ///< sequential misses
};

class ServerCache {
 public:
  explicit ServerCache(ServerCacheParams p = {}) : p_(p) {}

  bool enabled() const { return p_.capacity_bytes > 0; }
  const ServerCacheParams& params() const { return p_; }

  /// True when [offset, offset+length) of `file` is fully resident.
  bool covers(FileId file, std::uint64_t offset, std::uint64_t length) const;

  /// Insert a range (after a disk read or a write-through).
  void insert(FileId file, std::uint64_t offset, std::uint64_t length);

  /// Read-ahead decision: if this miss continues a sequential stream of
  /// `file`, returns the number of bytes to read beyond the request
  /// (clamped to the window); otherwise 0. Also updates the stream tracker.
  std::uint64_t readahead_hint(FileId file, std::uint64_t offset,
                               std::uint64_t length);

  std::uint64_t resident_bytes() const { return resident_; }
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  std::uint64_t evicted_bytes() const { return evicted_; }
  void note_hit() { ++hits_; }
  void note_miss() { ++misses_; }

 private:
  void evict_to_fit();

  ServerCacheParams p_;
  std::unordered_map<FileId, cache::RangeSet> resident_ranges_;
  /// FIFO of inserted ranges for approximate LRU eviction.
  std::deque<std::tuple<FileId, std::uint64_t, std::uint64_t>> insert_order_;
  std::unordered_map<FileId, std::uint64_t> stream_end_;  ///< per-file cursor
  std::uint64_t resident_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evicted_ = 0;
};

}  // namespace dpar::pfs
