// Tests for the engine's event queue (sim/event_queue.hpp): the slab 4-ary
// heap is driven against a trivial ordered-set model of the live keys under
// randomized schedule/cancel/drain mixes. Under DPAR_CHECK_INVARIANTS the
// heap-order invariant is death-tested through the queue's corruption hook.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <tuple>
#include <vector>

#include "sim/debug.hpp"
#include "sim/event_queue.hpp"
#include "sim/rng.hpp"

namespace dpar {
namespace {

using sim::EventKey;
using sim::EventQueue;
using sim::Time;

// ---- queue vs ordered-set model -------------------------------------------

/// The heap over a slab-generation array, shadowed by a std::set of the live
/// keys in (time, seq) order. Every observable (next_time, pop order, live
/// count) must agree with the model exactly.
struct QueueUnderTest {
  using ModelKey = std::tuple<Time, std::uint64_t, std::uint32_t>;

  std::vector<std::uint32_t> gens;
  EventQueue heap{&gens};
  std::set<ModelKey> model;
  std::uint64_t next_seq = 1;
  Time now = 0;

  EventKey make_key(Time t) {
    gens.push_back(1);
    const auto slot = static_cast<std::uint32_t>(gens.size() - 1);
    const EventKey k{t, next_seq++, slot, 1};
    model.emplace(k.t, k.seq, k.slot);
    return k;
  }

  std::uint32_t push(Time t) {
    const EventKey k = make_key(t);
    heap.push(k);
    return k.slot;
  }

  /// Cancel the pending key in `slot`: its generation moves on, exactly as
  /// Engine::cancel frees the slot.
  void cancel(std::uint32_t slot) {
    const auto it = std::find_if(model.begin(), model.end(), [slot](const ModelKey& m) {
      return std::get<2>(m) == slot;
    });
    ASSERT_NE(it, model.end());
    model.erase(it);
    ++gens[slot];
    heap.note_cancel();
  }

  Time model_next_time() const {
    return model.empty() ? sim::kNoEventTime : std::get<0>(*model.begin());
  }

  /// Pop one live key; returns false once drained. Asserts the popped key
  /// is the model's minimum and marks the slot fired.
  bool pop_and_compare() {
    EXPECT_EQ(heap.next_time(), model_next_time());
    EventKey h{};
    const bool popped = heap.pop_min_live(h);
    EXPECT_EQ(popped, !model.empty());
    if (!popped || model.empty()) return false;
    const ModelKey expect = *model.begin();
    model.erase(model.begin());
    EXPECT_EQ(h.t, std::get<0>(expect));
    EXPECT_EQ(h.seq, std::get<1>(expect));
    EXPECT_EQ(h.slot, std::get<2>(expect));
    EXPECT_GE(h.t, now);
    now = h.t;
    ++gens[h.slot];  // fired: the slot's generation moves on
    last_slot = h.slot;
    return true;
  }

  std::uint32_t last_slot = 0;  ///< slot of the most recent pop_and_compare

  void check() const {
    heap.check_invariants();
    // size() includes stale keys awaiting compaction; the live count must
    // match the model exactly.
    EXPECT_EQ(heap.size() - heap.stale(), model.size());
  }
};

/// One randomized mix: pushes spanning ns to (optionally) tens of seconds
/// ahead, cancels of pending keys, interleaved peeks and pops.
void run_differential_mix(std::uint64_t seed, int rounds, bool far_future) {
  sim::Rng rng(seed);
  QueueUnderTest q;
  std::vector<std::uint32_t> pending;

  const auto random_delta = [&]() -> Time {
    const double pick = rng.uniform(100) / 100.0;
    if (pick < 0.40) return static_cast<Time>(rng.uniform(1 << 12));
    if (pick < 0.70) return static_cast<Time>(rng.uniform(1 << 17));
    if (pick < 0.90) return static_cast<Time>(rng.uniform(1 << 25));
    if (!far_future) return static_cast<Time>(rng.uniform(1 << 28));
    return static_cast<Time>(rng.uniform(std::uint64_t{1} << 36));
  };

  for (int round = 0; round < rounds; ++round) {
    // Schedule a burst, peeking in between (next_time() drops stale keys
    // off the top as a side effect).
    const int burst = 1 + static_cast<int>(rng.uniform(24));
    for (int i = 0; i < burst; ++i) {
      pending.push_back(q.push(q.now + random_delta()));
      if (rng.chance(0.2)) {
        EXPECT_EQ(q.heap.next_time(), q.model_next_time());
      }
    }
    // Cancel-heavy churn: kill a random slice of whatever is pending.
    const int kills = static_cast<int>(rng.uniform(pending.size() + 1));
    for (int i = 0; i < kills && !pending.empty(); ++i) {
      const std::size_t at = rng.uniform(pending.size());
      q.cancel(pending[at]);
      pending[at] = pending.back();
      pending.pop_back();
    }
    // Drain a few and compare. Fired slots leave the cancellable set:
    // note_cancel's contract is "a held key was invalidated", matching
    // Engine::cancel, which rejects already-fired events.
    const int pops = static_cast<int>(rng.uniform(20));
    for (int i = 0; i < pops; ++i) {
      if (!q.pop_and_compare()) break;
      pending.erase(std::remove(pending.begin(), pending.end(), q.last_slot),
                    pending.end());
    }
    q.check();
  }
  while (q.pop_and_compare()) {
  }
  EXPECT_EQ(q.heap.size(), 0u);
  q.check();
}

TEST(EventQueueDifferential, RandomMixNearFuture) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed)
    run_differential_mix(seed, 60, /*far_future=*/false);
}

TEST(EventQueueDifferential, RandomMixWithFarFutureTail) {
  for (std::uint64_t seed = 11; seed <= 14; ++seed)
    run_differential_mix(seed, 60, /*far_future=*/true);
}

TEST(EventQueueDifferential, CancelStormLeavesBoundedQueue) {
  QueueUnderTest q;
  // Schedule/cancel churn with nothing ever firing: the amortized compaction
  // must keep the key count bounded by ~2x live, so a million cancelled
  // timers cannot accumulate.
  std::vector<std::uint32_t> live;
  sim::Rng rng(99);
  for (int i = 0; i < 50000; ++i) {
    live.push_back(q.push(q.now + 1 + static_cast<Time>(rng.uniform(1 << 30))));
    if (live.size() > 64) {
      q.cancel(live.front());
      live.front() = live.back();
      live.pop_back();
    }
  }
  EXPECT_LE(q.heap.size(), 2 * live.size() + 128);
  q.check();
  while (q.pop_and_compare()) {
  }
}

// ---- invariant death tests ----------------------------------------------

#if DPAR_CHECK_INVARIANTS

TEST(EventQueueDeath, HeapCatchesBrokenOrder) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  std::vector<std::uint32_t> gens{0, 1, 1, 1};
  EventQueue q(&gens);
  q.push(EventKey{100, 1, 1, 1});
  q.push(EventKey{200, 2, 2, 1});
  q.push(EventKey{300, 3, 3, 1});
  q.debug_corrupt_order_for_test();
  EXPECT_DEATH(q.check_invariants(), "child precedes its parent");
}

#else

TEST(EventQueueDeath, SkippedWithoutInvariantLayer) {
  GTEST_SKIP() << "DPAR_CHECK_INVARIANTS is compiled out in this build "
                  "(Release default); Debug/sanitizer legs run the death "
                  "tests.";
}

#endif  // DPAR_CHECK_INVARIANTS

}  // namespace
}  // namespace dpar
