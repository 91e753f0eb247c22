// Anticipatory scheduler (Iyer & Druschel, SOSP'01 — the paper's [17]).
//
// One sector-sorted queue plus system-wide anticipation: after completing a
// synchronous request the disk briefly idles, betting that the same process
// will immediately issue a nearby request — solving "deceptive idleness"
// without CFQ's per-context queues. The model keeps per-context think-time
// and locality statistics and waits only when the last-served context's
// history makes a nearby follow-up likely.
//
// Flat layout: the queue is a SortedRunQueue (was std::multimap) and the
// per-context stats live in an open-addressed ContextTable (was std::map).
// sched_reference.cpp keeps the map-based original as the differential
// oracle.
#include <cstdint>
#include <utility>

#include "disk/scheduler.hpp"
#include "disk/sorted_queue.hpp"
#include "sim/stats.hpp"

namespace dpar::disk {
namespace {

class AnticipatoryScheduler final : public IoScheduler {
 public:
  AnticipatoryScheduler(sim::Time antic_window, sim::Time max_wait)
      : window_(antic_window), max_wait_(max_wait) {}

  void enqueue(Request r, sim::Time now) override {
    update_stats(r, now);
    sorted_.insert(std::move(r));
  }

  Decision next(std::uint64_t head_lba, sim::Time now) override {
    if (sorted_.empty()) {
      if (anticipating_ && now < antic_deadline_)
        return Decision::wait(antic_deadline_);
      anticipating_ = false;
      return Decision::idle();
    }
    // If we are anticipating the last context and the best queued request is
    // far away, keep waiting (up to the deadline) for a near one.
    if (anticipating_ && now < antic_deadline_) {
      const Request& r = sorted_.peek(sorted_.pick(head_lba));
      const std::uint64_t dist = r.lba > head_lba ? r.lba - head_lba
                                                  : head_lba - r.lba;
      if (r.context == antic_context_ || dist <= kNearSectors) {
        anticipating_ = false;  // the bet paid off (or a near request showed up)
      } else {
        return Decision::wait(antic_deadline_);
      }
    }
    anticipating_ = false;
    return Decision::dispatch(sorted_.take(sorted_.pick(head_lba)));
  }

  void completed(const Request& r, sim::Time now) override {
    CtxStats& st = stats_.find_or_insert(r.context);
    st.last_completion = now;
    st.last_end = r.end_lba();
    // Anticipate only sync-looking contexts: short think times and mostly
    // local accesses.
    const bool thinky =
        !st.think_time.has_value() ||
        st.think_time.value() <= static_cast<double>(window_);
    const bool local =
        !st.seek_dist.has_value() || st.seek_dist.value() <= kNearSectors * 16;
    if (!r.is_write && thinky && local) {
      anticipating_ = true;
      antic_context_ = r.context;
      antic_deadline_ = now + std::min(window_, max_wait_);
    }
  }

  std::size_t pending() const override { return sorted_.size(); }
  std::string name() const override { return "anticipatory"; }

 private:
  static constexpr std::uint64_t kNearSectors = 2048;  // ~1 MB

  struct CtxStats {
    sim::Time last_completion = -1;
    std::uint64_t last_end = 0;
    sim::Ewma think_time{0.3};
    sim::Ewma seek_dist{0.3};
  };

  void update_stats(const Request& r, sim::Time now) {
    CtxStats& st = stats_.find_or_insert(r.context);
    if (st.last_completion >= 0) {
      st.think_time.add(static_cast<double>(now - st.last_completion));
      const std::uint64_t dist = r.lba > st.last_end ? r.lba - st.last_end
                                                     : st.last_end - r.lba;
      st.seek_dist.add(static_cast<double>(dist));
    }
  }

  sim::Time window_, max_wait_;
  SortedRunQueue sorted_;
  ContextTable<CtxStats> stats_;
  bool anticipating_ = false;
  std::uint64_t antic_context_ = 0;
  sim::Time antic_deadline_ = 0;
};

}  // namespace

std::unique_ptr<IoScheduler> make_anticipatory_scheduler(sim::Time antic_window,
                                                         sim::Time max_wait) {
  return std::make_unique<AnticipatoryScheduler>(antic_window, max_wait);
}

}  // namespace dpar::disk
