#include "disk/device.hpp"

#include <algorithm>
#include <memory>
#include <utility>

#include "fault/injector.hpp"
#include "sim/debug.hpp"

namespace dpar::disk {

DiskDevice::DiskDevice(sim::Engine& eng, DiskParams params,
                       std::unique_ptr<IoScheduler> sched)
    : eng_(eng), model_(params), sched_(std::move(sched)) {}

void DiskDevice::submit(Request r) {
  r.arrival = eng_.now();
  sched_->enqueue(std::move(r), eng_.now());
  if (busy_) return;
  // A new arrival interrupts any anticipation wait so the scheduler can
  // reconsider immediately.
  if (wait_event_) {
    eng_.cancel(wait_event_);
    wait_event_ = {};
  }
  poll();
}

void DiskDevice::poll() {
  if (busy_) return;
  wait_event_ = {};
  Decision d = sched_->next(model_.head(), eng_.now());
  switch (d.kind) {
    case Decision::Kind::kIdle:
      return;
    case Decision::Kind::kWaitUntil: {
      // Anticipatory idling: stay put, revisit at the deadline.
      if (d.wait_until <= eng_.now()) return;  // defensive; treat as idle
      wait_event_ = eng_.at(d.wait_until, [this] { poll(); });
      return;
    }
    case Decision::Kind::kDispatch: {
      Request req = std::move(d.request);
      TraceEvent ev;
      ev.time = eng_.now();
      ev.lba = req.lba;
      ev.sectors = req.sectors;
      ev.is_write = req.is_write;
      ev.context = req.context;
      ev.seek_distance = model_.seek_distance(req.lba);
      trace_.record(ev);

      sim::Time t = model_.serve(req.lba, req.sectors);
      fault::Status st = fault::Status::kOk;
      if (injector_) {
        // Even a failing request occupies the drive for its full service time
        // (the head travels and the drive retries internally before giving up).
        const auto v = injector_->disk_verdict(owner_, req.lba, req.sectors);
        st = v.status;
        t += v.stall;
      }
      busy_ = true;
      busy_time_ += t;
      ++served_;
      bytes_ += req.bytes();
      inflight_ = std::move(req);
      inflight_status_ = st;
      eng_.after(t, [this] {
        busy_ = false;
        // Move out first: the completion may re-enter submit()/poll() and
        // dispatch the next request into inflight_.
        Request done_req = std::move(inflight_);
        const fault::Status st = inflight_status_;
        sched_->completed(done_req, eng_.now());
        if (done_req.done) done_req.done(st);
        poll();
      });
      return;
    }
  }
}

Raid0Device::Raid0Device(sim::Engine& eng, DiskParams params,
                         std::unique_ptr<IoScheduler> s0,
                         std::unique_ptr<IoScheduler> s1)
    : eng_(eng), d0_(eng, params, std::move(s0)), d1_(eng, params, std::move(s1)) {}

std::uint64_t Raid0Device::capacity_sectors() const {
  return d0_.capacity_sectors() + d1_.capacity_sectors();
}

void Raid0Device::submit(Request r) {
  // Split the logical request into per-chunk pieces, map each chunk to a
  // member disk, and coalesce the pieces that land on one member (they are
  // always member-adjacent, see the class comment).
  struct Piece {
    int member;
    std::uint64_t lba;
    std::uint64_t sectors;
  };
  Piece pieces[2] = {};
  std::size_t n = 0;
  int last_piece[2] = {-1, -1};
  std::uint64_t lba = r.lba;
  std::uint64_t remaining = r.sectors;
  while (remaining > 0) {
    const std::uint64_t chunk = lba / kChunkSectors;
    const std::uint64_t within = lba % kChunkSectors;
    const std::uint64_t take = std::min(remaining, kChunkSectors - within);
    const int member = static_cast<int>(chunk % 2);
    // Member-local address: chunk index within the member, same offset.
    const std::uint64_t mlba = (chunk / 2) * kChunkSectors + within;
    lba += take;
    remaining -= take;
    if (last_piece[member] >= 0) {
      Piece& prev = pieces[last_piece[member]];
      DPAR_ASSERT(prev.lba + prev.sectors == mlba,
                  "RAID-0: a member's chunks of one request are not adjacent");
      prev.sectors += take;
      continue;
    }
    last_piece[member] = static_cast<int>(n);
    pieces[n++] = Piece{member, mlba, take};
  }
  if (n == 0) {
    if (r.done) r.done(fault::Status::kOk);
    return;
  }

  Split* sp = nullptr;
  if (n == 2) {
    sp = splits_.acquire();
    sp->done = std::move(r.done);
    sp->pending = 2;
    sp->status = fault::Status::kOk;
  }
  for (std::size_t i = 0; i < n; ++i) {
    const Piece& p = pieces[i];
    Request sub;
    sub.id = next_id_++;
    sub.lba = p.lba;
    sub.sectors = static_cast<std::uint32_t>(p.sectors);
    sub.is_write = r.is_write;
    sub.context = r.context;
    if (sp != nullptr) {
      sub.done = [this, sp](fault::Status st) { piece_done_(sp, st); };
    } else {
      sub.done = std::move(r.done);
    }
    member(p.member).submit(std::move(sub));
  }
}

void Raid0Device::piece_done_(Split* sp, fault::Status st) {
  sp->status = fault::combine(sp->status, st);
  if (--sp->pending != 0) return;
  CompletionFn done = std::move(sp->done);
  const fault::Status out = sp->status;
  splits_.release(sp);
  if (done) done(out);
}

}  // namespace dpar::disk
