#include "dualpar/emc.hpp"

#include <algorithm>
#include <stdexcept>

#include "disk/request.hpp"

namespace dpar::dualpar {

namespace {
/// EMC evaluation slot.
constexpr sim::Time kEmcSlot = sim::msec(500);
/// Data-driven mode also needs the program's I/O ratio above this (80%).
constexpr double kIoRatioThreshold = 0.8;
/// Data-driven mode is disabled when the average mis-prefetch ratio exceeds
/// this (20%).
constexpr double kMisprefetchThreshold = 0.2;

// ---- Degraded mode under faults ----
/// EMC falls back to vanilla independent execution (normal mode for every
/// job, overriding forced policies) when the EWMA of transfer outcomes
/// (1 = error, 0 = ok) exceeds this, or when any data server is down.
constexpr double kFaultDegradeThreshold = 0.25;
/// ... and re-engages data-driven scheduling once every server is back up
/// and the EWMA has decayed below this (hysteresis band).
constexpr double kFaultResumeThreshold = 0.05;
/// Smoothing factor of the transfer-outcome EWMA.
constexpr double kFaultErrorAlpha = 0.2;
}  // namespace

Emc::Emc(sim::Engine& eng, Params params, std::vector<pfs::DataServer*> servers)
    : eng_(eng), params_(params), servers_(std::move(servers)) {}

Emc::JobEntry* Emc::find_job(std::uint32_t job_id) {
  if (job_id == 0 || job_id > entries_.size()) return nullptr;
  return &entries_[job_id - 1];
}

const Emc::JobEntry* Emc::find_job(std::uint32_t job_id) const {
  if (job_id == 0 || job_id > entries_.size()) return nullptr;
  return &entries_[job_id - 1];
}

void Emc::register_job(mpi::Job& job, Policy policy) {
  if (job.id() != entries_.size() + 1)
    throw std::invalid_argument(
        "Emc::register_job: job ids must be registered as 1, 2, 3, ...");
  JobEntry e;
  e.job = &job;
  e.policy = policy;
  switch (policy) {
    case Policy::kForcedDataDriven: e.mode = Mode::kDataDriven; break;
    default: e.mode = Mode::kNormal; break;
  }
  entries_.push_back(std::move(e));
}

Mode Emc::mode(std::uint32_t job_id) const {
  // Degraded mode trumps everything, forced policies included: with a server
  // down or the error rate past the threshold, batching half the cluster's
  // data behind one CRM cycle only multiplies the blast radius of the next
  // fault. Every job runs vanilla until the cluster recovers.
  if (degraded_) return Mode::kNormal;
  const JobEntry* e = find_job(job_id);
  if (e == nullptr || e->latched) return Mode::kNormal;
  return e->mode;
}

const sim::TimeSeries& Emc::mode_series(std::uint32_t job_id) const {
  const JobEntry* e = find_job(job_id);
  if (e == nullptr) throw std::out_of_range("Emc::mode_series: unknown job");
  return e->mode_series;
}

void Emc::report_io_error() {
  error_ewma_ = kFaultErrorAlpha + (1.0 - kFaultErrorAlpha) * error_ewma_;
  update_degraded();
}

void Emc::report_io_ok() {
  // Only meaningful while the fault machinery is live; fault-free runs never
  // call in here, so the fast path stays untouched.
  error_ewma_ = (1.0 - kFaultErrorAlpha) * error_ewma_;
  update_degraded();
}

void Emc::note_server_state(std::uint32_t, bool down) {
  if (down) {
    ++servers_down_;
  } else if (servers_down_ > 0) {
    --servers_down_;
  }
  update_degraded();
}

void Emc::update_degraded() {
  if (!degraded_) {
    if (servers_down_ > 0 || error_ewma_ > kFaultDegradeThreshold) {
      degraded_ = true;
      if (injector_) ++injector_->counters().emc_degraded_entries;
    }
    return;
  }
  // Hysteresis: re-engage only once every server is back and the error EWMA
  // has decayed well below the entry threshold.
  if (servers_down_ == 0 && error_ewma_ < kFaultResumeThreshold) {
    degraded_ = false;
    if (injector_) ++injector_->counters().emc_degraded_exits;
  }
}

void Emc::report_misprefetch(std::uint32_t job_id, double ratio) {
  JobEntry* e = find_job(job_id);
  if (e == nullptr) return;
  e->misprefetch.add(ratio);
  if (e->misprefetch.value() > kMisprefetchThreshold &&
      e->policy != Policy::kForcedNormal) {
    // "A large mis-prefetching miss ratio will turn off the data-driven mode
    // ... this is a one-time overhead" — latch the job to normal.
    e->latched = true;
    e->mode_series.add(eng_.now(), 0.0);
  }
}

bool Emc::latched_off(std::uint32_t job_id) const {
  const JobEntry* e = find_job(job_id);
  return e != nullptr && e->latched;
}

void Emc::observe(std::uint32_t job_id, pfs::FileId file,
                  const std::vector<pfs::Segment>& segments, sim::Time) {
  JobEntry* e = find_job(job_id);
  if (e == nullptr) return;
  auto& spans = e->slot_spans;
  auto it = std::lower_bound(spans.begin(), spans.end(), file,
                             [](const auto& p, pfs::FileId f) { return p.first < f; });
  if (it == spans.end() || it->first != file) it = spans.insert(it, {file, OffsetSpan{}});
  for (const pfs::Segment& seg : segments) it->second.add(seg.offset);
}

void Emc::start() {
  if (ticking_) return;
  ticking_ = true;
  eng_.after(kEmcSlot, [this] {
    ticking_ = false;
    tick();
    // Keep evaluating while any registered job is live.
    const bool live = std::any_of(entries_.begin(), entries_.end(), [](const auto& e) {
      return !e.job->finished();
    });
    if (live) start();
  });
}

void Emc::tick() {
  const sim::Time now = eng_.now();

  // Server-side: mean seek distance of the last completed slot, in bytes.
  double seek_sum = 0.0;
  std::uint32_t seek_n = 0;
  for (pfs::DataServer* s : servers_) {
    const double d = s->trace().slot_seek_distance(now);
    if (d > 0.0 || s->trace().dispatches() > 0) {
      seek_sum += d * static_cast<double>(disk::kSectorBytes);
      ++seek_n;
    }
  }
  const double seek = seek_n ? seek_sum / seek_n : 0.0;
  seek_series_.add(now, seek);

  // Client-side: per-job ReqDist and I/O ratio.
  double req_sum = 0.0;
  std::uint32_t req_n = 0;
  for (JobEntry& e : entries_) {
    double job_sum = 0.0;
    std::uint32_t job_n = 0;
    for (auto& [file, span] : e.slot_spans) {
      if (span.count() >= 2) {
        job_sum += span.mean_adjacent_distance();
        ++job_n;
      }
      span.clear();
    }
    if (job_n > 0) {
      req_sum += job_sum / job_n;
      ++req_n;
    }
    // I/O ratio over the last slot.
    const sim::Time io = e.job->total_io_time();
    const sim::Time comp = e.job->total_compute_time();
    const sim::Time dio = io - e.prev_io;
    const sim::Time dcomp = comp - e.prev_compute;
    e.prev_io = io;
    e.prev_compute = comp;
    if (dio + dcomp > 0)
      e.io_ratio = static_cast<double>(dio) / static_cast<double>(dio + dcomp);
  }
  last_req_ = req_n ? req_sum / req_n : 0.0;
  const double ratio = last_req_ > 0.0 ? seek / last_req_ : 0.0;

  // Mode decisions, with confirmation slots and a minimum dwell so the
  // controller does not flap (the data-driven mode's own effect on seek
  // distances would immediately disqualify it again).
  for (JobEntry& e : entries_) {
    if (e.policy != Policy::kAdaptive || e.latched || e.job->finished()) continue;
    const Mode want = (ratio > params_.t_improvement &&
                       e.io_ratio > kIoRatioThreshold)
                          ? Mode::kDataDriven
                          : Mode::kNormal;
    if (want == e.mode) {
      e.agree_slots = 0;
      continue;
    }
    if (++e.agree_slots < params_.emc_confirm_slots) continue;
    if (now - e.last_switch < params_.emc_min_dwell && e.last_switch > 0) continue;
    e.mode = want;
    e.agree_slots = 0;
    e.last_switch = now;
    ++switches_;
    e.mode_series.add(now, want == Mode::kDataDriven ? 1.0 : 0.0);
  }
}

}  // namespace dpar::dualpar
