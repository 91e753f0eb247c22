#include "pfs/server_cache.hpp"

#include <algorithm>

namespace dpar::pfs {

namespace {
/// A read continuing within this distance of the previous end of stream
/// counts as sequential.
constexpr std::uint64_t kSequentialSlack = 64 * 1024;
}  // namespace

bool ServerCache::covers(FileId file, std::uint64_t offset,
                         std::uint64_t length) const {
  if (!enabled()) return false;
  auto it = resident_ranges_.find(file);
  return it != resident_ranges_.end() && it->second.covers(offset, offset + length);
}

void ServerCache::insert(FileId file, std::uint64_t offset, std::uint64_t length) {
  if (!enabled() || length == 0) return;
  cache::RangeSet& rs = resident_ranges_[file];
  const std::uint64_t before = rs.total_bytes();
  rs.add(offset, offset + length);
  resident_ += rs.total_bytes() - before;
  insert_order_.emplace_back(file, offset, offset + length);
  evict_to_fit();
}

std::uint64_t ServerCache::readahead_hint(FileId file, std::uint64_t offset,
                                          std::uint64_t length) {
  if (!enabled()) return 0;
  auto it = stream_end_.find(file);
  const bool sequential =
      it != stream_end_.end() && offset >= it->second &&
      offset - it->second <= kSequentialSlack;
  stream_end_[file] = offset + length;
  if (!sequential) return 0;
  stream_end_[file] += p_.readahead_bytes;
  return p_.readahead_bytes;
}

void ServerCache::evict_to_fit() {
  while (resident_ > p_.capacity_bytes && !insert_order_.empty()) {
    const auto [file, begin, end] = insert_order_.front();
    insert_order_.pop_front();
    auto it = resident_ranges_.find(file);
    if (it == resident_ranges_.end()) continue;
    const std::uint64_t before = it->second.total_bytes();
    it->second.remove(begin, end);
    const std::uint64_t freed = before - it->second.total_bytes();
    resident_ -= freed;
    evicted_ += freed;
    if (it->second.empty()) resident_ranges_.erase(it);
  }
}

}  // namespace dpar::pfs
