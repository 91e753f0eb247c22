// CRM — cache and request management (§IV-D): pure planning logic for
// turning the requests collected from all of a program's processes into an
// optimized issue order. Kept side-effect free so the transformations are
// directly testable.
#pragma once

#include <cstdint>
#include <vector>

#include "pfs/layout.hpp"

namespace dpar::dualpar {

struct BatchOptions {
  bool sort = true;
  bool merge = true;
  std::uint64_t hole_fill_max = 64 * 1024;  ///< 0 disables hole absorption
};

/// Build a read batch: sort by offset, merge adjacent/overlapping segments,
/// and absorb holes smaller than hole_fill_max ("the data in the holes are
/// added to the requests... this further helps form larger requests").
std::vector<pfs::Segment> build_read_batch(std::vector<pfs::Segment> segments,
                                           const BatchOptions& opt);

/// Plan for flushing dirty data: contiguous write runs (small holes merged
/// in), plus the hole reads that must complete first so hole bytes can be
/// written back unchanged ("for writes the data in the holes will be filled
/// by additional reads before writing to disks").
struct WritebackPlan {
  std::vector<pfs::Segment> hole_reads;
  std::vector<pfs::Segment> writes;
  std::uint64_t dirty_bytes = 0;
  std::uint64_t hole_bytes = 0;
};

WritebackPlan plan_writeback(std::vector<pfs::Segment> dirty, const BatchOptions& opt);

/// The client-side ReqDist metric (§IV-B) of one file over one observation
/// slot: the average adjacent offset distance between its requests' segments
/// once sorted by offset. On a sorted list the adjacent gaps telescope to
/// (max offset - min offset), so the fold keeps only the extremes and the
/// count: O(1) per segment, nothing stored. The quotient is bit-identical to
/// summing the sorted gaps one by one while offsets stay below 2^53, since
/// every partial sum is then an exactly representable integer.
class OffsetSpan {
 public:
  void add(std::uint64_t offset) {
    if (n_ == 0 || offset < lo_) lo_ = offset;
    if (n_ == 0 || offset > hi_) hi_ = offset;
    ++n_;
  }
  std::uint64_t count() const { return n_; }
  /// Mean adjacent distance in bytes; 0 with fewer than two segments.
  double mean_adjacent_distance() const {
    if (n_ < 2) return 0.0;
    return static_cast<double>(hi_ - lo_) / static_cast<double>(n_ - 1);
  }
  void clear() { n_ = 0; }

 private:
  std::uint64_t lo_ = 0;
  std::uint64_t hi_ = 0;
  std::uint64_t n_ = 0;
};

}  // namespace dpar::dualpar
