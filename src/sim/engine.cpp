#include "sim/engine.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <condition_variable>
#include <exception>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>

#include "sim/debug.hpp"

namespace dpar::sim {

namespace {
constexpr Time kNoEvent = kNoEventTime;
}  // namespace

/// One logical process: a private event queue, slab, clock and sequence
/// counter, plus the outbox channel that carries its cross-lane posts to the
/// next window barrier. During a parallel window a lane is touched by exactly
/// one worker thread; between windows only the coordinating thread touches
/// any lane (the barrier's mutex orders the two regimes).
struct Engine::Lane {
  struct Slot {
    Callback cb;
    std::uint32_t next_free = 0;  ///< freelist link (index + 1; 0 = none).
  };
  /// A timestamped cross-lane message awaiting delivery at the barrier. The
  /// target lane is implied by the queue the post sits in (one queue per
  /// (source, target) pair), so the record carries only time and callback.
  struct Post {
    Time t;
    Callback cb;
  };

  Lane() : queue(&gens) {}

  std::uint32_t alloc_slot() {
    if (free_head != 0) {
      const std::uint32_t s = free_head - 1;
      free_head = slots[s].next_free;
      slots[s].next_free = 0;
      return s;
    }
    if (slots.size() == slots.capacity()) {
      // Moving a Slot runs the callback's relocate hook per element; grow in
      // big steps so slab growth stays a rare event.
      const std::size_t cap = slots.capacity() < 256 ? 256 : slots.capacity() * 2;
      slots.reserve(cap);
      gens.reserve(cap);
    }
    slots.emplace_back();
    gens.push_back(1);
    return static_cast<std::uint32_t>(slots.size() - 1);
  }

  void free_slot(std::uint32_t slot) {
    Slot& s = slots[slot];
    s.cb.reset();
    if (++gens[slot] == 0) gens[slot] = 1;  // keep 0 reserved for "no event"
    s.next_free = free_head;
    free_head = slot + 1;
  }

  Time next_time() { return queue.next_time(); }

  void check_invariants() const {
    queue.check_invariants();
    // Key validity and live/stale bookkeeping against the slab.
    std::size_t live_keys = 0;
    std::size_t stale_keys = 0;
    queue.for_each_key([&](const EventKey& k) {
      DPAR_ASSERT(k.slot < slots.size(), "event queue: key slot out of range");
      if (gens[k.slot] != k.gen) {
        ++stale_keys;
      } else {
        ++live_keys;
        DPAR_ASSERT(static_cast<bool>(slots[k.slot].cb),
                    "event queue: live key whose slot has no callback");
        DPAR_ASSERT(k.t >= now, "event queue: live key scheduled in the past");
      }
    });
    DPAR_ASSERT(live_keys == live, "event queue: live-event count out of sync");
    DPAR_ASSERT(stale_keys == queue.stale(),
                "event queue: stale-key count out of sync");
    DPAR_ASSERT(gens.size() == slots.size(),
                "event slab: generation array not parallel to slots");
    // Freelist: every link in range, no slot visited twice, no free slot
    // holding a callback.
    std::vector<bool> seen(slots.size(), false);
    for (std::uint32_t head = free_head; head != 0;
         head = slots[head - 1].next_free) {
      const std::uint32_t slot = head - 1;
      DPAR_ASSERT(slot < slots.size(), "event slab: freelist link out of range");
      DPAR_ASSERT(!seen[slot], "event slab: freelist cycle");
      DPAR_ASSERT(!slots[slot].cb, "event slab: free slot holds a callback");
      seen[slot] = true;
    }
  }

  LaneId id = 0;
  bool exclusive = false;
  std::vector<Slot> slots;  ///< slab of callbacks, free-listed.
  /// Slot generations, parallel to slots (bumped on every free; tags
  /// EventId/EventKey). Kept out of Slot so stale-key checks and compactions
  /// scan a dense u32 array instead of striding over fat callback slots.
  /// Declared before `queue`, which captures its address at construction.
  std::vector<std::uint32_t> gens;
  EventQueue queue;  ///< (time, seq) key heap; see event_queue.hpp
  std::uint32_t free_head = 0;  ///< freelist head (index + 1; 0 = empty).
  std::size_t live = 0;
  Time now = 0;
  std::uint64_t next_seq = 1;
  std::uint64_t fired = 0;
  /// Per-target outbox channel: outq[target] queues this lane's cross-lane
  /// posts to `target`, touched lists the non-empty queues in first-touch
  /// order. The barrier merges whole (source, target) queues instead of
  /// walking individual posts, so its cost scales with touched channels —
  /// not messages — at 256+ lanes.
  std::vector<std::vector<Post>> outq;
  std::vector<LaneId> touched;

  bool outbox_empty() const { return touched.empty(); }
};

thread_local Engine::Lane* Engine::t_lane_ = nullptr;

Engine::Engine() {
  lanes_.push_back(std::make_unique<Lane>());
  lane0_ = lanes_.front().get();
}

Engine::~Engine() = default;

Time Engine::pdes_now_() const { return t_lane_->now; }

LaneId Engine::current_lane() const {
  if (pdes_parallel_) return t_lane_->id;
  return cur_lane_;
}

LaneId Engine::add_lane() {
  if (in_window_)
    throw std::logic_error("Engine::add_lane: cannot add lanes mid-run");
  auto lane = std::make_unique<Lane>();
  lane->id = static_cast<LaneId>(lanes_.size());
  lanes_.push_back(std::move(lane));
  lane0_ = lanes_.front().get();
  return lanes_.back()->id;
}

LaneId Engine::add_exclusive_lane() {
  if (excl_ != 0)
    throw std::logic_error("Engine::add_exclusive_lane: already created");
  excl_ = add_lane();
  lanes_[excl_]->exclusive = true;
  return excl_;
}

void Engine::set_lookahead(Time l) {
  if (l < 0) throw std::invalid_argument("Engine::set_lookahead: negative");
  lookahead_ = l;
}

void Engine::set_pdes_workers(unsigned w) {
  workers_ = w == 0 ? 1 : w;
}

EventId Engine::schedule_(Lane& L, Time t, Callback cb) {
  const std::uint32_t slot = L.alloc_slot();
  const std::uint32_t gen = L.gens[slot];
  L.slots[slot].cb = std::move(cb);
  L.queue.push(EventKey{t, L.next_seq++, slot, gen});
  ++L.live;
  return EventId{slot, gen, L.id};
}

EventId Engine::at(Time t, Callback cb) {
  Lane& L = pdes_parallel_ ? *t_lane_ : lane_(cur_lane_);
  if (t < L.now) throw std::invalid_argument("Engine::at: time in the past");
  return schedule_(L, t, std::move(cb));
}

EventId Engine::after(Time delay, Callback cb) {
  const Time base = now();
  if (delay > std::numeric_limits<Time>::max() - base)
    throw std::overflow_error(
        "Engine::after: now() + delay overflows simulated time");
  return at(base + delay, std::move(cb));
}

EventId Engine::at_in(LaneId lane, Time t, Callback cb) {
  if (lane >= lanes_.size())
    throw std::out_of_range("Engine::at_in: bad lane id");
  const LaneId cur = current_lane();
  if (in_window_ && lane != cur) {
    // Cross-lane post during a window: the target queue may be executing on
    // another worker, so the event travels through the calling lane's outbox
    // channel and is delivered (with a deterministic target sequence number)
    // at the barrier. The conservative protocol is only sound if the post
    // lands at or past the window horizon — i.e. the caller kept the
    // lookahead contract.
    DPAR_ASSERT(t >= horizon_,
                "PDES: cross-lane event inside the lookahead window");
    Lane& C = lane_(cur);
    if (C.outq.size() < lanes_.size()) C.outq.resize(lanes_.size());
    std::vector<Lane::Post>& q = C.outq[lane];
    if (q.empty()) C.touched.push_back(lane);
    q.push_back(Lane::Post{t, std::move(cb)});
    return EventId{};
  }
  Lane& L = lane_(lane);
  if (t < L.now) throw std::invalid_argument("Engine::at_in: time in the past");
  return schedule_(L, t, std::move(cb));
}

EventId Engine::after_in(LaneId lane, Time delay, Callback cb) {
  const Time base = now();
  if (delay > std::numeric_limits<Time>::max() - base)
    throw std::overflow_error(
        "Engine::after_in: now() + delay overflows simulated time");
  return at_in(lane, base + delay, std::move(cb));
}

EventId Engine::at_all(Time t, std::vector<Callback> cbs) {
  if (cbs.empty()) return EventId{};
  if (cbs.size() == 1) return at(t, std::move(cbs.front()));
  return at(t, [cbs = std::move(cbs)]() mutable {
    for (auto& cb : cbs) cb();
  });
}

EventId Engine::after_all(Time delay, std::vector<Callback> cbs) {
  const Time base = now();
  if (delay > std::numeric_limits<Time>::max() - base)
    throw std::overflow_error(
        "Engine::after_all: now() + delay overflows simulated time");
  return at_all(base + delay, std::move(cbs));
}

EventId Engine::at_all_in(LaneId lane, Time t, std::vector<Callback> cbs) {
  if (cbs.empty()) return EventId{};
  if (cbs.size() == 1) return at_in(lane, t, std::move(cbs.front()));
  return at_in(lane, t, [cbs = std::move(cbs)]() mutable {
    for (auto& cb : cbs) cb();
  });
}

bool Engine::cancel(EventId id) {
  if (!id) return false;
  if (id.lane >= lanes_.size()) return false;
  DPAR_ASSERT(!in_window_ || id.lane == current_lane(),
              "PDES: cross-lane cancel inside a window");
  Lane& L = lane_(id.lane);
  if (id.slot >= L.slots.size()) return false;
  if (L.gens[id.slot] != id.gen || !L.slots[id.slot].cb)
    return false;  // already fired or cancelled
  L.free_slot(id.slot);
  --L.live;
  // The key goes stale in place — an O(1) generation kill. The queue's
  // amortized compaction keeps stale keys from ever dominating memory.
  L.queue.note_cancel();
  return true;
}

bool Engine::step() {
  if (partitioned())
    throw std::logic_error("Engine::step: unavailable on a partitioned engine");
  Lane& L = *lane0_;
  EventKey k;
  if (!L.queue.pop_min_live(k)) return false;
  // Move the callback out and free the slot *before* invoking, so the
  // callback can freely schedule into the just-freed slot (reentrancy).
  Callback cb = std::move(L.slots[k.slot].cb);
  L.free_slot(k.slot);
  --L.live;
  assert(k.t >= L.now);
  L.now = k.t;
  now_ = k.t;
  ++L.fired;
  cb();
  return true;
}

std::uint64_t Engine::run_serial_(std::uint64_t max_events) {
  std::uint64_t n = 0;
  while (n < max_events && step()) ++n;
  return n;
}

std::uint64_t Engine::run(std::uint64_t max_events) {
  return partitioned() ? run_pdes_(max_events, kNoEvent)
                       : run_serial_(max_events);
}

void Engine::run_until(Time t) {
  if (partitioned()) {
    // Windows are capped at t, so every lane fires exactly its events with
    // time <= t; then all clocks advance to the same cut.
    run_pdes_(UINT64_MAX, t);
    for (auto& lp : lanes_)
      if (lp->now < t) lp->now = t;
    if (now_ < t) now_ = t;
    return;
  }
  Lane& L = *lane0_;
  for (;;) {
    const Time nt = L.queue.next_time();
    if (nt == kNoEvent || nt > t) break;
    step();
  }
  if (L.now < t) {
    L.now = t;
    now_ = t;
  }
}

std::uint64_t Engine::drain_lane_(Lane& L, Time horizon) {
  std::uint64_t n = 0;
  for (;;) {
    if (L.queue.next_time() >= horizon) break;
    EventKey k;
    L.queue.pop_min_live(k);
    Callback cb = std::move(L.slots[k.slot].cb);
    L.free_slot(k.slot);
    --L.live;
    assert(k.t >= L.now);
    L.now = k.t;
    if (!pdes_parallel_) now_ = k.t;
    ++L.fired;
    ++n;
    cb();
  }
  return n;
}

void Engine::drain_outboxes_() {
  // Source lanes in lane order, targets in first-touch order, posts in queue
  // order: per target this delivers posts in (source lane, post) order —
  // exactly the sequence the per-event drain assigned — so target sequence
  // numbers stay worker-count-independent. The only order-sensitive input is
  // per-lane execution, never which worker ran which lane.
  for (auto& lp : lanes_) {
    for (const LaneId to : lp->touched) {
      std::vector<Lane::Post>& q = lp->outq[to];
      Lane& target = lane_(to);
      for (const Lane::Post& p : q)
        if (p.t < target.now)
          throw std::logic_error(
              "PDES: cross-lane event behind the target lane's clock "
              "(lookahead contract violated)");
      // Bulk merge: for a large batch, take the queue's append path — every
      // key is appended unsifted and order is restored once with Floyd's
      // O(n) rebuild. Pop order depends only on the (time, seq) keys, which
      // are assigned identically on either path.
      const bool bulk = q.size() >= 32 && q.size() * 8 >= target.queue.size();
      for (Lane::Post& p : q) {
        if (bulk) {
          const std::uint32_t slot = target.alloc_slot();
          const std::uint32_t gen = target.gens[slot];
          target.slots[slot].cb = std::move(p.cb);
          target.queue.append(EventKey{p.t, target.next_seq++, slot, gen});
          ++target.live;
        } else {
          schedule_(target, p.t, std::move(p.cb));
        }
      }
      if (bulk) target.queue.commit_batch();
      q.clear();
    }
    lp->touched.clear();
  }
}

std::uint64_t Engine::run_pdes_(std::uint64_t max_events, Time bound) {
  if (lookahead_ <= 0)
    throw std::logic_error(
        "Engine::run: a partitioned engine needs a positive lookahead");

  // Count the parallelizable lanes; the pool never needs more workers.
  std::uint32_t normal_lanes = 0;
  for (const auto& lp : lanes_)
    if (!lp->exclusive) ++normal_lanes;
  const unsigned participants =
      std::min<unsigned>(workers_, normal_lanes ? normal_lanes : 1);

  // ---- Window worker pool (spawned once per run) ----
  // Window hand-off is a classic epoch barrier: the coordinator publishes a
  // horizon and bumps the epoch under the mutex, workers claim lanes off an
  // atomic cursor, and the last one home wakes the coordinator. All lane
  // state is ordered by the mutex, so the only atomics are the cursor and
  // the fired tally.
  struct Window {
    std::mutex mu;
    std::condition_variable cv_work;
    std::condition_variable cv_done;
    std::uint64_t epoch = 0;
    Time horizon = 0;
    std::uint32_t done = 0;
    bool stop = false;
    std::vector<Lane*> work;
    std::atomic<std::uint32_t> cursor{0};
    std::atomic<std::uint64_t> fired{0};
  } win;
  for (auto& lp : lanes_)
    if (!lp->exclusive) win.work.push_back(lp.get());

  std::vector<std::exception_ptr> errors(participants);

  auto claim_and_drain = [this, &win](std::exception_ptr& err) {
    std::uint64_t n = 0;
    try {
      for (;;) {
        const std::uint32_t i =
            win.cursor.fetch_add(1, std::memory_order_relaxed);
        if (i >= win.work.size()) break;
        if (err) continue;  // drained lanes stay untouched after a failure
        Lane* L = win.work[i];
        t_lane_ = L;
        n += drain_lane_(*L, win.horizon);
        t_lane_ = nullptr;
      }
    } catch (...) {
      err = std::current_exception();
      t_lane_ = nullptr;
    }
    win.fired.fetch_add(n, std::memory_order_relaxed);
  };

  std::vector<std::thread> threads;
  if (participants > 1) {
    threads.reserve(participants - 1);
    for (unsigned w = 1; w < participants; ++w) {
      threads.emplace_back([&win, &claim_and_drain, &errors, w] {
        std::uint64_t seen = 0;
        std::unique_lock<std::mutex> lk(win.mu);
        for (;;) {
          win.cv_work.wait(lk, [&] { return win.stop || win.epoch != seen; });
          if (win.stop) return;
          seen = win.epoch;
          lk.unlock();
          claim_and_drain(errors[w]);
          lk.lock();
          if (++win.done == 0) {}  // (done counted under the lock)
          win.cv_done.notify_one();
        }
      });
    }
  }

  auto shutdown_pool = [&] {
    if (threads.empty()) return;
    {
      std::lock_guard<std::mutex> lk(win.mu);
      win.stop = true;
    }
    win.cv_work.notify_all();
    for (auto& th : threads) th.join();
    threads.clear();
  };

  std::uint64_t fired_run = 0;
  try {
    while (fired_run < max_events) {
      // Earliest pending work, split by lane kind.
      Time t_excl = kNoEvent;
      if (excl_ != 0) t_excl = lane_(excl_).next_time();
      Time t_min = kNoEvent;
      std::uint32_t runnable_hint = 0;
      for (Lane* L : win.work) {
        const Time t = L->next_time();
        if (t < t_min) t_min = t;
        if (t != kNoEvent) ++runnable_hint;
      }
      if (t_excl == kNoEvent && t_min == kNoEvent) break;
      // Bounded run (run_until): stop before any event past the bound fires.
      if ((t_excl < t_min ? t_excl : t_min) > bound) break;

      if (t_excl <= t_min) {
        // Exclusive events run one at a time with every lane quiescent: all
        // lanes have fired exactly their events with t < t_excl, so the
        // callback may read (and schedule into) any lane directly.
        Lane& E = lane_(excl_);
        EventKey k;
        E.queue.pop_min_live(k);
        Callback cb = std::move(E.slots[k.slot].cb);
        E.free_slot(k.slot);
        --E.live;
        E.now = k.t;
        now_ = k.t;
        cur_lane_ = excl_;
        ++E.fired;
        ++fired_run;
        cb();
        cur_lane_ = 0;
        continue;
      }

      // Safe window: every lane may fire its events with t < horizon without
      // hearing from any other lane — cross-lane posts are at least one
      // lookahead away, and the next exclusive event caps the horizon.
      Time horizon = lookahead_ > kNoEvent - t_min ? kNoEvent : t_min + lookahead_;
      if (t_excl < horizon) horizon = t_excl;
      // Drain is strict-<, so bound + 1 keeps events at exactly the bound.
      if (bound < kNoEvent && horizon > bound + 1) horizon = bound + 1;
      horizon_ = horizon;
      in_window_ = true;

      if (participants == 1 || runnable_hint <= 1) {
        // Nothing to parallelize: run the identical windowed schedule on the
        // calling thread (this is the whole story when pdes_workers == 1).
        for (Lane* L : win.work) {
          cur_lane_ = L->id;
          now_ = L->now;
          fired_run += drain_lane_(*L, horizon);
        }
        cur_lane_ = 0;
      } else {
        win.cursor.store(0, std::memory_order_relaxed);
        win.fired.store(0, std::memory_order_relaxed);
        pdes_parallel_ = true;
        {
          std::lock_guard<std::mutex> lk(win.mu);
          win.horizon = horizon;
          win.done = 0;
          ++win.epoch;
        }
        win.cv_work.notify_all();
        claim_and_drain(errors[0]);
        {
          std::unique_lock<std::mutex> lk(win.mu);
          ++win.done;
          win.cv_done.wait(lk, [&] { return win.done == participants; });
        }
        pdes_parallel_ = false;
        fired_run += win.fired.load(std::memory_order_relaxed);
        for (auto& err : errors)
          if (err) std::rethrow_exception(err);
      }

      in_window_ = false;
      drain_outboxes_();
    }
  } catch (...) {
    pdes_parallel_ = false;
    in_window_ = false;
    cur_lane_ = 0;
    shutdown_pool();
    throw;
  }
  shutdown_pool();

  // The run is over (or paused at the event budget): expose the frontier
  // clock so post-run readers see a single coherent time.
  Time latest = 0;
  for (const auto& lp : lanes_)
    if (lp->now > latest) latest = lp->now;
  now_ = latest;
  return fired_run;
}

bool Engine::empty() const {
  for (const auto& lp : lanes_)
    if (lp->live != 0) return false;
  return true;
}

std::uint64_t Engine::events_fired() const {
  std::uint64_t n = 0;
  for (const auto& lp : lanes_) n += lp->fired;
  return n;
}

std::size_t Engine::live_events() const {
  std::size_t n = 0;
  for (const auto& lp : lanes_) n += lp->live;
  return n;
}

std::size_t Engine::slab_slots() const {
  std::size_t n = 0;
  for (const auto& lp : lanes_) n += lp->slots.size();
  return n;
}

std::size_t Engine::queue_depth() const {
  std::size_t n = 0;
  for (const auto& lp : lanes_) n += lp->queue.size();
  return n;
}

void Engine::check_invariants() const {
  for (const auto& lp : lanes_) {
    lp->check_invariants();
    DPAR_ASSERT(lp->outbox_empty() || in_window_,
                "PDES: outbox posts outside a window");
    for (std::size_t to = 0; to < lp->outq.size(); ++to)
      if (!lp->outq[to].empty())
        DPAR_ASSERT(std::find(lp->touched.begin(), lp->touched.end(),
                              static_cast<LaneId>(to)) != lp->touched.end(),
                    "PDES: non-empty outbox queue missing from touched list");
  }
  DPAR_ASSERT(excl_ == 0 || (excl_ < lanes_.size() && lanes_[excl_]->exclusive),
              "PDES: exclusive lane id out of sync");
}

}  // namespace dpar::sim
