// Reference (multimap-based) scheduler implementations.
//
// These are the original node-based-container schedulers, retained verbatim
// after the flat rewrites in sched_simple.cpp / sched_cfq.cpp. They exist
// for two consumers:
//  * tests/test_sched_model.cpp runs every flat scheduler differentially
//    against its reference here on randomized arrival/dispatch/expiry
//    sequences — the flat implementations must reproduce these decisions
//    bit for bit;
//  * bench/bench_micro.cpp measures the flat/reference duty-cycle ratio
//    that the perf-smoke CI job tracks.
// Do not "fix" or restructure these; their value is being frozen.
#include <cstdint>
#include <deque>
#include <map>
#include <stdexcept>
#include <utility>

#include "disk/scheduler.hpp"
#include "sim/stats.hpp"

namespace dpar::disk {
namespace {

class RefNoopScheduler final : public IoScheduler {
 public:
  void enqueue(Request r, sim::Time) override { q_.push_back(std::move(r)); }

  Decision next(std::uint64_t, sim::Time) override {
    if (q_.empty()) return Decision::idle();
    Request r = std::move(q_.front());
    q_.pop_front();
    return Decision::dispatch(std::move(r));
  }

  std::size_t pending() const override { return q_.size(); }
  std::string name() const override { return "noop-ref"; }

 private:
  std::deque<Request> q_;
};

/// Sector-sorted service with per-direction expiry FIFOs, like the Linux
/// deadline scheduler. The FIFOs key entries by request id and validate them
/// lazily against `index_` (drop_stale); an entry that survives validation
/// but matches nothing in the sorted queue is a desync and throws — the
/// differential tests exercise exactly this FIFO-desync path.
class RefDeadlineScheduler final : public IoScheduler {
 public:
  RefDeadlineScheduler(sim::Time rd, sim::Time wd) : read_dl_(rd), write_dl_(wd) {}

  void enqueue(Request r, sim::Time now) override {
    const std::uint64_t key = r.id;
    auto& fifo = r.is_write ? write_fifo_ : read_fifo_;
    fifo.emplace_back(now + (r.is_write ? write_dl_ : read_dl_), key);
    sorted_.emplace(r.lba, std::move(r));
    index_[key] = true;
  }

  Decision next(std::uint64_t head_lba, sim::Time now) override {
    if (sorted_.empty()) return Decision::idle();
    for (auto* fifo : {&read_fifo_, &write_fifo_}) {
      drop_stale(*fifo);
      if (!fifo->empty() && fifo->front().first <= now) {
        const std::uint64_t key = fifo->front().second;
        fifo->pop_front();
        return Decision::dispatch(take_by_id(key));
      }
    }
    auto it = sorted_.lower_bound(head_lba);
    if (it == sorted_.end()) it = sorted_.begin();  // wrap like C-SCAN
    Request r = std::move(it->second);
    sorted_.erase(it);
    index_.erase(r.id);
    return Decision::dispatch(std::move(r));
  }

  std::size_t pending() const override { return sorted_.size(); }
  std::string name() const override { return "deadline-ref"; }

 private:
  using Fifo = std::deque<std::pair<sim::Time, std::uint64_t>>;

  void drop_stale(Fifo& fifo) {
    while (!fifo.empty() && index_.find(fifo.front().second) == index_.end())
      fifo.pop_front();
  }

  Request take_by_id(std::uint64_t key) {
    for (auto it = sorted_.begin(); it != sorted_.end(); ++it) {
      if (it->second.id == key) {
        Request r = std::move(it->second);
        sorted_.erase(it);
        index_.erase(key);
        return r;
      }
    }
    throw std::logic_error("deadline: FIFO entry without a sorted-queue request");
  }

  sim::Time read_dl_, write_dl_;
  std::multimap<std::uint64_t, Request> sorted_;
  Fifo read_fifo_;
  Fifo write_fifo_;
  std::map<std::uint64_t, bool> index_;
};

/// One-directional elevator: serve ascending from the head, wrap to the
/// lowest pending sector at the end of the sweep.
class RefCscanScheduler final : public IoScheduler {
 public:
  void enqueue(Request r, sim::Time) override { sorted_.emplace(r.lba, std::move(r)); }

  Decision next(std::uint64_t head_lba, sim::Time) override {
    if (sorted_.empty()) return Decision::idle();
    auto it = sorted_.lower_bound(head_lba);
    if (it == sorted_.end()) it = sorted_.begin();
    Request r = std::move(it->second);
    sorted_.erase(it);
    return Decision::dispatch(std::move(r));
  }

  std::size_t pending() const override { return sorted_.size(); }
  std::string name() const override { return "cscan-ref"; }

 private:
  std::multimap<std::uint64_t, Request> sorted_;
};

class RefCfqScheduler final : public IoScheduler {
 public:
  explicit RefCfqScheduler(CfqParams p) : p_(p) {}

  void enqueue(Request r, sim::Time now) override {
    Context& ctx = contexts_[r.context];
    if (ctx.queue.empty() && !ctx.in_rr) {
      rr_.push_back(r.context);
      ctx.in_rr = true;
    }
    if (ctx.last_completion >= 0 && ctx.queue.empty())
      ctx.think_time.add(static_cast<double>(now - ctx.last_completion));
    ctx.queue.emplace(r.lba, std::move(r));
    ++pending_;
  }

  Decision next(std::uint64_t head_lba, sim::Time now) override {
    if (pending_ == 0 && active_ == kNone) return Decision::idle();

    if (active_ != kNone) {
      Context& ctx = contexts_[active_];
      if (!ctx.queue.empty() && now < slice_end_) return dispatch_from(ctx, head_lba);
      if (ctx.queue.empty() && now < slice_end_ && should_idle(ctx)) {
        const sim::Time deadline = std::min(slice_end_, idle_started_ + p_.slice_idle);
        if (now < deadline) return Decision::wait(deadline);
      }
      expire_active();
    }

    while (!rr_.empty()) {
      const std::uint64_t id = rr_.front();
      rr_.pop_front();
      Context& ctx = contexts_[id];
      ctx.in_rr = false;
      if (ctx.queue.empty()) continue;
      active_ = id;
      slice_end_ = now + p_.slice_sync;
      return dispatch_from(ctx, head_lba);
    }
    return Decision::idle();
  }

  void completed(const Request& r, sim::Time now) override {
    auto it = contexts_.find(r.context);
    if (it == contexts_.end()) return;
    it->second.last_completion = now;
    if (r.context == active_ && it->second.queue.empty()) idle_started_ = now;
  }

  std::size_t pending() const override { return pending_; }
  std::string name() const override { return "cfq-ref"; }

 private:
  static constexpr std::uint64_t kNone = UINT64_MAX;

  struct Context {
    std::multimap<std::uint64_t, Request> queue;  // sector-sorted
    sim::Time last_completion = -1;
    sim::Ewma think_time{0.3};
    bool in_rr = false;
  };

  bool should_idle(const Context& ctx) const {
    if (!ctx.think_time.has_value()) return true;  // optimistic at first
    return ctx.think_time.value() <= static_cast<double>(p_.slice_idle);
  }

  Decision dispatch_from(Context& ctx, std::uint64_t head_lba) {
    auto it = ctx.queue.lower_bound(head_lba);
    if (it == ctx.queue.end()) it = ctx.queue.begin();
    Request r = std::move(it->second);
    ctx.queue.erase(it);
    --pending_;
    return Decision::dispatch(std::move(r));
  }

  void expire_active() {
    if (active_ == kNone) return;
    Context& ctx = contexts_[active_];
    if (!ctx.queue.empty() && !ctx.in_rr) {
      rr_.push_back(active_);
      ctx.in_rr = true;
    }
    active_ = kNone;
  }

  CfqParams p_;
  std::map<std::uint64_t, Context> contexts_;
  std::deque<std::uint64_t> rr_;
  std::uint64_t active_ = kNone;
  sim::Time slice_end_ = 0;
  sim::Time idle_started_ = 0;
  std::size_t pending_ = 0;
};

}  // namespace

std::unique_ptr<IoScheduler> make_reference_noop_scheduler() {
  return std::make_unique<RefNoopScheduler>();
}
std::unique_ptr<IoScheduler> make_reference_deadline_scheduler(sim::Time rd,
                                                               sim::Time wd) {
  return std::make_unique<RefDeadlineScheduler>(rd, wd);
}
std::unique_ptr<IoScheduler> make_reference_cscan_scheduler() {
  return std::make_unique<RefCscanScheduler>();
}
std::unique_ptr<IoScheduler> make_reference_cfq_scheduler(CfqParams p) {
  return std::make_unique<RefCfqScheduler>(p);
}

}  // namespace dpar::disk
