// Slab 4-ary min-heap behind sim::EventQueue (see event_queue.hpp).
#include "sim/event_queue.hpp"

#include <utility>

#include "sim/debug.hpp"

namespace dpar::sim {

void EventQueue::push(const EventKey& k) {
  heap_.push_back(k);
  sift_up_(heap_.size() - 1);
}

/// Drop stale keys off the top; the earliest live event time, or
/// kNoEventTime.
Time EventQueue::next_time() {
  while (!heap_.empty() && stale_key(heap_.front())) {
    pop_min_();
    --stale_;
  }
  return heap_.empty() ? kNoEventTime : heap_.front().t;
}

bool EventQueue::pop_min_live(EventKey& out) {
  if (next_time() == kNoEventTime) return false;
  out = heap_.front();
  pop_min_();
  return true;
}

void EventQueue::note_cancel() {
  ++stale_;
  // Amortized cleanup: never let cancelled keys dominate the heap.
  if (stale_ >= 64 && stale_ * 2 >= heap_.size()) compact_();
}

void EventQueue::pop_min_() {
  heap_.front() = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down_(0);
}

void EventQueue::sift_up_(std::size_t i) {
  const EventKey k = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!before(k, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = k;
}

void EventQueue::sift_down_(std::size_t i) {
  const std::size_t n = heap_.size();
  const EventKey k = heap_[i];
  for (;;) {
    const std::size_t first = 4 * i + 1;
    if (first >= n) break;
    const std::size_t last = first + 4 < n ? first + 4 : n;
    std::size_t best = first;
    for (std::size_t c = first + 1; c < last; ++c)
      if (before(heap_[c], heap_[best])) best = c;
    if (!before(heap_[best], k)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = k;
}

/// Restore the heap property bottom-up (Floyd): only internal nodes sift.
/// O(n) regardless of how disordered the keys are, so a compaction costs
/// one linear pass.
void EventQueue::rebuild_() {
  if (heap_.size() > 1)
    for (std::size_t i = (heap_.size() - 2) / 4 + 1; i-- > 0;)
      sift_down_(i);
}

void EventQueue::compact_() {
  std::size_t out = 0;
  for (std::size_t i = 0; i < heap_.size(); ++i)
    if (!stale_key(heap_[i])) heap_[out++] = heap_[i];
  heap_.resize(out);
  rebuild_();
  stale_ = 0;
  DPAR_IF_CHECKING(check_invariants());
}

void EventQueue::check_invariants() const {
  // Heap property: no child orders before its parent.
  for (std::size_t i = 1; i < heap_.size(); ++i)
    DPAR_ASSERT(!before(heap_[i], heap_[(i - 1) / 4]),
                "event heap: child precedes its parent");
  std::size_t stale_keys = 0;
  for (const EventKey& k : heap_) {
    DPAR_ASSERT(k.slot < gens_->size(), "event heap: key slot out of range");
    DPAR_ASSERT(k.gen != 0, "event heap: key with reserved generation 0");
    if (stale_key(k)) ++stale_keys;
  }
  DPAR_ASSERT(stale_keys == stale_, "event heap: stale-key count out of sync");
}

void EventQueue::debug_corrupt_order_for_test() {
  if (heap_.size() >= 2) std::swap(heap_.front(), heap_.back());
}

}  // namespace dpar::sim
