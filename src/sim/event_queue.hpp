// The engine's event queue: a slab 4-ary min-heap of (time, seq) keys.
//
// Every lane owns one EventQueue holding (time, seq, slot, gen) keys; the
// callbacks themselves live in the lane's slab. The 4-ary layout is
// shallower than a binary heap and keeps a node's four children adjacent in
// memory. push/pop are O(log n). Cancel is O(1): the lane bumps the slot's
// generation, the key goes stale in place, pops skip it, and an amortized
// compaction (filter + Floyd rebuild) runs once stale keys reach half the
// heap, so cancel-heavy timer traffic stays bounded in memory.
//
// Live keys pop in exactly the packed 128-bit (time, seq) total order, so
// every simulation is deterministic and byte-identical at any
// DPAR_PDES_WORKERS count.
//
// This heap is the only queue. A tiered timer-wheel queue used to be the
// default, with this heap kept beside it as an oracle; it was removed
// because it never paid end to end. With byte-identical output it was
// 4-22% slower on fig3/table2/replication/faults, at parity on fig4, and no
// faster on any perfbench workload. DESIGN.md §10 has the numbers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "sim/time.hpp"

namespace dpar::sim {

/// "No pending event" sentinel returned by EventQueue::next_time().
constexpr Time kNoEventTime = std::numeric_limits<Time>::max();

/// One scheduled event: fire time, global-order tie-breaker, and the
/// generation-tagged slab slot holding its callback. The queue never looks
/// at the callback — staleness is decided entirely by the owning lane's
/// generation array.
struct EventKey {
  Time t;
  std::uint64_t seq;
  std::uint32_t slot;
  std::uint32_t gen;
};

// Kept only for perfbench's engine banner; delete with the next perfbench change.
enum class QueueKind : std::uint8_t { kHeap, kLadder };
inline QueueKind queue_kind_from_env() { return QueueKind::kHeap; }

class EventQueue {
 public:
  /// `gens` is the owning lane's slot-generation array: key `k` is stale
  /// (cancelled or superseded) exactly when (*gens)[k.slot] != k.gen. The
  /// pointer must outlive the queue; the vector may grow/reallocate freely.
  explicit EventQueue(const std::vector<std::uint32_t>* gens) : gens_(gens) {}

  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Insert one key. Keys must be unique and carry strictly increasing seq
  /// per (t) from the owning lane's counter.
  void push(const EventKey& k);

  /// Bulk-insert path for window-barrier outbox batches: append keys
  /// unsifted, then commit_batch() once restores order with one O(n) Floyd
  /// rebuild. Pop order depends only on the keys, so this yields the same
  /// schedule as per-key push().
  void append(const EventKey& k) { heap_.push_back(k); }
  void commit_batch() { rebuild_(); }

  /// Earliest live key's time, or kNoEventTime when none is pending.
  /// Drops leading stale keys as a side effect.
  Time next_time();

  /// Pop the earliest live key into `out`. False when no live key remains.
  bool pop_min_live(EventKey& out);

  /// The owning lane cancelled a key (its generation was bumped). O(1):
  /// bumps the stale count and, past the amortized threshold, compacts
  /// every stale key away.
  void note_cancel();

  /// Total keys held, including stale keys awaiting compaction (bounded at
  /// ~2x the live count by the compaction threshold).
  std::size_t size() const { return heap_.size(); }
  std::size_t stale() const { return stale_; }

  /// Visit every key (live and stale) in unspecified order — the owning
  /// lane's invariant checks validate slot/callback agreement through this.
  template <class F>
  void for_each_key(F&& f) const {
    for (const EventKey& k : heap_) f(k);
  }

  /// Structural validation (debug invariant layer): 4-ary heap order and
  /// live/stale bookkeeping. Aborts via DPAR_ASSERT on violation.
  void check_invariants() const;

  /// Test-only corruption hook for the invariant death test: breaks the
  /// heap order, so check_invariants() must abort.
  void debug_corrupt_order_for_test();

 private:
  // (t, seq) packed into one 128-bit value: a single branchless compare.
  // Valid because t >= 0 always (scheduling rejects the past), so the
  // int64 -> uint64 cast preserves order. __extension__ keeps -Wpedantic
  // (and thus the -Werror CI builds) quiet about the GNU type.
  __extension__ typedef unsigned __int128 Pri;
  static Pri pri(const EventKey& k) {
    return (static_cast<Pri>(static_cast<std::uint64_t>(k.t)) << 64) | k.seq;
  }
  static bool before(const EventKey& a, const EventKey& b) {
    return pri(a) < pri(b);
  }
  bool stale_key(const EventKey& k) const { return (*gens_)[k.slot] != k.gen; }

  void pop_min_();
  void sift_up_(std::size_t i);
  void sift_down_(std::size_t i);
  void rebuild_();
  void compact_();

  const std::vector<std::uint32_t>* gens_;
  std::size_t stale_ = 0;  ///< cancelled keys still held
  std::vector<EventKey> heap_;
};

}  // namespace dpar::sim
