// Discrete-event simulation engine with optional conservative parallelism.
//
// The default engine is a single-threaded event loop over a slab-allocated
// 4-ary heap of (time, sequence) ordered callbacks. Sequence numbers break
// ties so that two events scheduled for the same instant always fire in
// scheduling order, which makes every run deterministic.
//
// A simulation can additionally be *partitioned* into lanes — logical
// processes in PDES terms — each owning its own event heap, clock and
// sequence counter. Lanes execute in parallel under a conservative
// (lookahead-based) protocol:
//
//  * Lane 0 always exists and is the default home of every event; extra
//    lanes are created with add_lane() before the run starts.
//  * Cross-lane interactions go through at_in()/after_in(). Inside a
//    parallel window a cross-lane call does not touch the target heap;
//    it is appended to the calling lane's per-target outbox queue and
//    delivered at the next window barrier — source lanes in lane order,
//    each (source, target) queue as one batch — so the target's sequence
//    numbers are assigned deterministically and the barrier does one
//    bulk heap insert per touched (source, target) pair instead of one
//    sift per event.
//  * A window executes, in every lane concurrently, all events with
//    t < horizon where horizon = min(next event time) + lookahead. The
//    lookahead is the minimum cross-lane latency (the network model's
//    switch latency), so no message posted during a window can land
//    inside it. DPAR_ASSERT enforces this on every cross-lane post.
//  * An *exclusive* lane (add_exclusive_lane) holds events that may read
//    any lane's state — EMC and monitor sampling ticks. Its events run
//    one at a time with no other lane executing: at time tE, every lane
//    has fired exactly its events with t < tE. Exclusive events order
//    before same-timestamp lane events; within a lane the existing
//    (time, seq) order is unchanged. This total order is a *different*
//    deterministic schedule from the unpartitioned engine's global
//    sequence order, but it is byte-identical at every worker count.
//
// The single-lane fast path is exactly the pre-PDES engine: no locks, no
// atomics, no thread-local lookups — just one extra predictable branch on
// the hot accessors.
//
// Hot-path design (the whole simulator runs through here):
//  * Callbacks are `UniqueFunction`s with a 48-byte small buffer — the common
//    lambda captures (a few pointers) never touch the allocator.
//  * Events live in a free-listed slab; `EventId` is a generation-tagged slot
//    index plus its owning lane, so `cancel()` is an O(1) validity check that
//    frees the slot (and destroys the callback) immediately — no hash sets,
//    no deferred cleanup.
//  * Each lane's (time, seq, slot, gen) keys live in one slab 4-ary min-heap
//    (event_queue.hpp), the engine's only queue. Cancelled events leave a
//    stale key behind that is skipped on pop and reclaimed by an amortized
//    compaction, so cancel-heavy workloads stay bounded in memory. There is
//    no queue option: a tiered timer-wheel alternative was removed after it
//    measured slower end to end (event_queue.hpp, DESIGN.md §10).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/func.hpp"
#include "sim/time.hpp"

namespace dpar::sim {

/// Identifies one event lane (logical process). Lane 0 is the default lane
/// of an unpartitioned engine.
using LaneId = std::uint32_t;

/// Handle for a scheduled event; usable to cancel it before it fires.
/// A generation-tagged slot index within its owning lane: stale handles
/// (fired, cancelled, or from a reused slot) are detected in O(1) and never
/// alias a newer event.
struct EventId {
  std::uint32_t slot = 0;
  std::uint32_t gen = 0;  ///< 0 means "no event" (live slots have gen >= 1).
  LaneId lane = 0;
  explicit operator bool() const { return gen != 0; }
};

class Engine {
 public:
  using Callback = UniqueFunction;

  Engine();
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Schedule `cb` at absolute time `t` (must be >= now()) in the calling
  /// context's lane (lane 0 outside of lane execution).
  EventId at(Time t, Callback cb);

  /// Schedule `cb` after `delay` nanoseconds from now. Throws
  /// std::overflow_error when `now() + delay` would overflow simulated time.
  EventId after(Time delay, Callback cb);

  /// Schedule ONE event at `t` that fires every callback in order. Equivalent
  /// to scheduling each callback at `t` back-to-back — their sequence numbers
  /// would be consecutive, so no other event can interleave — but it costs a
  /// single heap entry. Used to coalesce barrier releases and collective
  /// round completions (one completion per round instead of one per rank).
  /// Returns the empty id for an empty batch; the batch as a whole is
  /// cancellable via the returned id.
  EventId at_all(Time t, std::vector<Callback> cbs);
  EventId after_all(Time delay, std::vector<Callback> cbs);

  /// at_all targeting a specific lane: ONE event in `lane` at `t` firing the
  /// callbacks in order. Used by the split-lane job coordinator to release a
  /// node's barrier waiters as a single cross-lane message.
  EventId at_all_in(LaneId lane, Time t, std::vector<Callback> cbs);

  /// Cancel a pending event. Returns false if it already fired, was already
  /// cancelled, or `id` is empty. The event's slot and callback are reclaimed
  /// immediately (and the slot becomes reusable), even for far-future events.
  /// On a partitioned engine an event may only be cancelled from its own
  /// lane while a window executes (cross-lane cancels would race).
  bool cancel(EventId id);

  /// Current simulated time of the calling context's lane.
  Time now() const { return pdes_parallel_ ? pdes_now_() : now_; }

  /// Fire the next event. Returns false when no events remain.
  /// Single-lane engines only.
  bool step();

  /// Run until the queue drains or `max_events` have fired. On a partitioned
  /// engine this executes the conservative parallel protocol (`max_events`
  /// is then honoured at window granularity).
  /// Returns the number of events fired.
  std::uint64_t run(std::uint64_t max_events = UINT64_MAX);

  /// Run events with time <= t, then advance the clock to exactly t.
  /// On a partitioned engine the windows are capped at t, so this pauses
  /// every lane at the same cut — mid-run introspection stays available.
  void run_until(Time t);

  /// True when no live events are pending in any lane.
  bool empty() const;

  /// Number of events fired so far across all lanes (for perf accounting
  /// and tests).
  std::uint64_t events_fired() const;

  /// Live (scheduled, not yet fired or cancelled) events across all lanes.
  std::size_t live_events() const;

  /// Slab capacity in slots, summed over lanes — grows to the peak number of
  /// simultaneously live events and is then reused; regression-tested to
  /// stay flat under schedule/cancel churn.
  std::size_t slab_slots() const;

  /// Queue keys, including stale keys of cancelled events awaiting the
  /// amortized compaction (bounded at ~2x live_events()).
  std::size_t queue_depth() const;

  /// Full structural validation (debug invariant layer) of every lane:
  /// heap ordering, generation-tag validity of every live key, live/stale
  /// bookkeeping, and freelist consistency. Aborts via DPAR_ASSERT on
  /// violation. Called automatically after every compaction when
  /// DPAR_CHECK_INVARIANTS is compiled in, and directly by tests.
  void check_invariants() const;

  // ---- Conservative PDES partitioning ----

  /// Create a new lane (logical process). Must be called before the run
  /// starts. Returns the lane's id.
  LaneId add_lane();

  /// Create the exclusive lane: its events run with every other lane at a
  /// window barrier, so they may read and write any lane's state. At most
  /// one exclusive lane exists per engine.
  LaneId add_exclusive_lane();

  /// The exclusive lane's id, or 0 when none was created — so
  /// `after_in(exclusive_lane(), ...)` degrades to plain `after()` on an
  /// unpartitioned engine.
  LaneId exclusive_lane() const { return excl_; }

  /// True once extra lanes exist; run() then uses the parallel protocol.
  bool partitioned() const { return lanes_.size() > 1; }

  std::uint32_t num_lanes() const { return static_cast<std::uint32_t>(lanes_.size()); }

  /// The lane whose event is currently executing (lane 0 outside of any
  /// event, e.g. during setup).
  LaneId current_lane() const;

  /// Minimum cross-lane scheduling latency, in nanoseconds. Every
  /// at_in()/after_in() targeting another lane from inside a window must land
  /// at least this far past the window's start. Must be > 0 to run a
  /// partitioned engine.
  void set_lookahead(Time l);
  Time lookahead() const { return lookahead_; }

  /// Worker threads for partitioned runs (>= 1). Workers beyond the number
  /// of non-exclusive lanes are not spawned. 1 executes the identical
  /// windowed schedule serially — the CI determinism baseline.
  void set_pdes_workers(unsigned w);
  unsigned pdes_workers() const { return workers_; }

  /// Schedule into a specific lane. Same-lane calls (and any call outside a
  /// window) push directly; a cross-lane call during a window goes through
  /// the calling lane's outbox channel and returns the empty EventId (the
  /// event is not cancellable — it does not exist in the target heap until
  /// the window barrier).
  EventId at_in(LaneId lane, Time t, Callback cb);
  EventId after_in(LaneId lane, Time delay, Callback cb);

 private:
  struct Lane;

  /// The lane a parallel worker is currently executing. Engines never share
  /// worker threads, so a plain pointer per thread suffices; it is null
  /// outside parallel windows (serial execution reads members instead).
  static thread_local Lane* t_lane_;

  Lane& lane_(LaneId id) const { return *lanes_[id]; }
  EventId schedule_(Lane& L, Time t, Callback cb);
  std::uint64_t drain_lane_(Lane& L, Time horizon);
  void drain_outboxes_();
  std::uint64_t run_serial_(std::uint64_t max_events);
  std::uint64_t run_pdes_(std::uint64_t max_events, Time bound);
  Time pdes_now_() const;

  std::vector<std::unique_ptr<Lane>> lanes_;
  Lane* lane0_ = nullptr;  ///< cached lanes_[0] for the single-lane fast path
  /// Serial-context clock: mirrors the executing lane's clock whenever
  /// events run on the calling thread (always, except inside a parallel
  /// window, where each worker reads its lane's clock via TLS).
  Time now_ = 0;
  Time lookahead_ = 0;
  Time horizon_ = 0;      ///< end of the currently executing window
  LaneId cur_lane_ = 0;   ///< serial-context executing lane
  LaneId excl_ = 0;       ///< exclusive lane id; 0 = none
  unsigned workers_ = 1;
  bool pdes_parallel_ = false;  ///< a parallel window is executing
  bool in_window_ = false;      ///< a window (serial or parallel) is executing
};

}  // namespace dpar::sim
