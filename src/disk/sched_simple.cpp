// NOOP (FIFO), DEADLINE and C-SCAN elevator schedulers.
//
// These are the baselines against which the CFQ model and DualPar's
// application-level ordering are compared in the ablation benches.
//
// All three run on the flat structures in sorted_queue.hpp; the original
// multimap implementations live on in sched_reference.cpp as differential
// oracles (tests/test_sched_model.cpp) and must make identical decisions.
#include <cstdint>
#include <stdexcept>
#include <utility>

#include "disk/scheduler.hpp"
#include "disk/sorted_queue.hpp"
#include "sim/slot_fifo.hpp"

namespace dpar::disk {
namespace {

class NoopScheduler final : public IoScheduler {
 public:
  void enqueue(Request r, sim::Time) override { q_.push_back(slab_.park(std::move(r))); }

  Decision next(std::uint64_t, sim::Time) override {
    if (q_.empty()) return Decision::idle();
    return Decision::dispatch(slab_.take(q_.pop_front()));
  }

  std::size_t pending() const override { return q_.size(); }
  std::string name() const override { return "noop"; }

 private:
  RequestSlab slab_;
  sim::SlotFifo<std::uint32_t> q_;
};

/// Sector-sorted service with per-direction expiry FIFOs, like the Linux
/// deadline scheduler (reads 500 ms, writes 5 s by default; the read FIFO is
/// checked first, so an expired read pre-empts the sweep even while older
/// writes are still within deadline).
///
/// FIFO entries carry the request's slab slot plus the slot generation at
/// enqueue time; a dispatched request bumps its slot's generation, so stale
/// entries are detected by a single compare instead of the reference's
/// id-index map (and, unlike ids, a reused slot can never resurrect an old
/// FIFO entry).
class DeadlineScheduler final : public IoScheduler {
 public:
  DeadlineScheduler(sim::Time rd, sim::Time wd) : read_dl_(rd), write_dl_(wd) {}

  void enqueue(Request r, sim::Time now) override {
    const bool is_write = r.is_write;
    const std::uint32_t slot = sorted_.insert(std::move(r));
    file_expiry(slot, is_write, now);
  }

  Decision next(std::uint64_t head_lba, sim::Time now) override {
    if (sorted_.empty()) return Decision::idle();
    for (auto* fifo : {&read_fifo_, &write_fifo_}) {
      drop_stale(*fifo);
      if (!fifo->empty() && fifo->front().expiry <= now) {
        const std::uint32_t slot = fifo->front().slot;
        fifo->pop_front();
        const std::size_t index = sorted_.index_of_slot(slot);
        if (index == SortedRunQueue::npos)
          throw std::logic_error("deadline: FIFO entry without a sorted-queue request");
        return Decision::dispatch(sorted_.take(index));
      }
    }
    return Decision::dispatch(sorted_.take(sorted_.pick(head_lba)));
  }

  std::size_t pending() const override { return sorted_.size(); }
  std::string name() const override { return "deadline"; }

 private:
  struct FifoEntry {
    sim::Time expiry;
    std::uint32_t slot;
    std::uint32_t gen;
  };

  void file_expiry(std::uint32_t slot, bool is_write, sim::Time now) {
    auto& fifo = is_write ? write_fifo_ : read_fifo_;
    fifo.push_back(FifoEntry{now + (is_write ? write_dl_ : read_dl_), slot,
                             sorted_.generation(slot)});
  }

  void drop_stale(sim::SlotFifo<FifoEntry>& fifo) {
    while (!fifo.empty() && sorted_.generation(fifo.front().slot) != fifo.front().gen)
      fifo.pop_front();
  }

  sim::Time read_dl_, write_dl_;
  SortedRunQueue sorted_;
  sim::SlotFifo<FifoEntry> read_fifo_;
  sim::SlotFifo<FifoEntry> write_fifo_;
};

/// One-directional elevator: serve ascending from the head, wrap to the
/// lowest pending sector at the end of the sweep.
class CscanScheduler final : public IoScheduler {
 public:
  void enqueue(Request r, sim::Time) override { sorted_.insert(std::move(r)); }

  Decision next(std::uint64_t head_lba, sim::Time) override {
    if (sorted_.empty()) return Decision::idle();
    return Decision::dispatch(sorted_.take(sorted_.pick(head_lba)));
  }

  std::size_t pending() const override { return sorted_.size(); }
  std::string name() const override { return "cscan"; }

 private:
  SortedRunQueue sorted_;
};

}  // namespace

std::unique_ptr<IoScheduler> make_noop_scheduler() {
  return std::make_unique<NoopScheduler>();
}
std::unique_ptr<IoScheduler> make_deadline_scheduler(sim::Time rd, sim::Time wd) {
  return std::make_unique<DeadlineScheduler>(rd, wd);
}
std::unique_ptr<IoScheduler> make_cscan_scheduler() {
  return std::make_unique<CscanScheduler>();
}

std::unique_ptr<IoScheduler> make_scheduler(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::kNoop: return make_noop_scheduler();
    case SchedulerKind::kDeadline: return make_deadline_scheduler();
    case SchedulerKind::kCscan: return make_cscan_scheduler();
    case SchedulerKind::kCfq: return make_cfq_scheduler();
  }
  return make_cfq_scheduler();
}

}  // namespace dpar::disk
