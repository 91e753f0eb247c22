// DualPar configuration (§IV defaults).
#pragma once

#include <cstdint>

#include "sim/time.hpp"

namespace dpar::dualpar {

struct Params {
  /// Per-process cache quota ("each process has a quota in the cache";
  /// 1 MB default, swept in Fig 8).
  std::uint64_t cache_quota = 1ull << 20;

  /// EMC enables data-driven mode when aveSeekDist/aveReqDist exceeds this
  /// (T_improvement, default 3) and the program's I/O ratio exceeds
  /// kIoRatioThreshold (emc.cpp).
  double t_improvement = 3.0;

  /// Mode-switch damping: a switch needs this many consecutive agreeing
  /// slots, and a job stays in its mode at least this long. (Without
  /// damping the controller flaps: entering data-driven mode improves the
  /// seek distances, which immediately disqualifies the mode again.)
  std::uint32_t emc_confirm_slots = 2;
  sim::Time emc_min_dwell = sim::secs(2);

  /// Holes up to this size are absorbed when merging batch requests
  /// (reads: fetched along; writes: filled by additional reads, §IV-D).
  std::uint64_t hole_fill_max = 64 * 1024;

  /// Upper clamp of the pre-execution deadline (§IV-C); the rest of the
  /// deadline rule is fixed (kPreexecDeadlineSlack/Min, driver.cpp).
  sim::Time preexec_deadline_max = sim::secs(5);

  // ---- Ablation switches (DESIGN.md §4) ----
  bool sort_batch = true;
  bool merge_batch = true;
  bool fill_holes = true;
};

}  // namespace dpar::dualpar
