// EMC — execution-mode control daemon (§IV-B).
//
// Lives on the metadata server. Every slot it gathers:
//  * per-server SeekDist: mean disk-head seek distance of requests dispatched
//    in the last slot (from the blktrace recorders);
//  * per-job ReqDist: mean adjacent distance of the job's requests observed
//    at the compute nodes in the last slot, after sorting per file — the best
//    I/O efficiency a data-driven reordering could achieve (folded per
//    segment by OffsetSpan, crm.hpp, without storing or sorting anything);
//  * per-job I/O ratio, from the instrumented ADIO timing probes.
// A job enters data-driven mode when aveSeekDist/aveReqDist > T_improvement
// and its I/O ratio exceeds 80%; it reverts when the condition clears, and is
// latched back to normal when its average mis-prefetch ratio exceeds 20%.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "dualpar/crm.hpp"
#include "dualpar/params.hpp"
#include "mpi/job.hpp"
#include "mpiio/env.hpp"
#include "pfs/server.hpp"
#include "sim/engine.hpp"
#include "sim/stats.hpp"

namespace dpar::dualpar {

enum class Mode { kNormal, kDataDriven };
enum class Policy { kAdaptive, kForcedNormal, kForcedDataDriven };

class Emc : public mpiio::RequestObserver {
 public:
  Emc(sim::Engine& eng, Params params, std::vector<pfs::DataServer*> servers);

  /// Jobs register once each, in id order 1, 2, 3, … (Testbed::add_job);
  /// any other id throws std::invalid_argument.
  void register_job(mpi::Job& job, Policy policy);
  Mode mode(std::uint32_t job_id) const;

  /// Mis-prefetch report from a job's CRM at the start of a pre-execution
  /// round; ratios are averaged and can latch the job back to normal mode.
  void report_misprefetch(std::uint32_t job_id, double ratio);
  bool latched_off(std::uint32_t job_id) const;

  // ---- Degraded mode under faults ----
  /// Outcome of one finished transfer (DualPar batch or delegated vanilla
  /// call). Feeds the error EWMA that drives fall-back and re-engagement.
  void report_io_error();
  void report_io_ok();
  /// Fault-injector listener: any data server down forces normal mode for
  /// every job until it restarts.
  void note_server_state(std::uint32_t server, bool down);
  /// True while EMC is forcing vanilla execution because of faults.
  bool degraded() const { return degraded_; }
  /// Route degraded entry/exit counts into a run's fault ledger (optional).
  void set_fault_injector(fault::FaultInjector* inj) { injector_ = inj; }

  /// ADIO request observation (client side, feeds ReqDist). Hot path: each
  /// segment folds into its (job, file) OffsetSpan in O(1); ReqDist depends
  /// only on the offset multiset, so the fold order never changes it.
  void observe(std::uint32_t job_id, pfs::FileId file,
               const std::vector<pfs::Segment>& segments, sim::Time now) override;

  /// Begin periodic evaluation (re-arms itself while any job is live).
  void start();
  /// One evaluation step (also callable directly from tests).
  void tick();

  // ---- Introspection for experiments ----
  double last_req_dist_bytes() const { return last_req_; }
  const sim::TimeSeries& seek_series() const { return seek_series_; }
  const sim::TimeSeries& mode_series(std::uint32_t job_id) const;
  std::uint64_t mode_switches() const { return switches_; }

 private:
  struct JobEntry {
    mpi::Job* job = nullptr;
    Policy policy = Policy::kAdaptive;
    Mode mode = Mode::kNormal;
    bool latched = false;
    sim::Ewma misprefetch{0.5};
    // I/O-ratio deltas between ticks.
    sim::Time prev_io = 0;
    sim::Time prev_compute = 0;
    double io_ratio = 0.0;
    // Request observations of the current slot, per file: a FileId-sorted
    // flat vector (binary-search insert in observe(), the per-op hot path;
    // tick() sums in this order, which fixes the float accumulation order).
    // Spans are cleared, not erased, between slots.
    std::vector<std::pair<pfs::FileId, OffsetSpan>> slot_spans;
    sim::TimeSeries mode_series;
    // Switch damping.
    std::uint32_t agree_slots = 0;
    sim::Time last_switch = 0;
  };

  void update_degraded();
  JobEntry* find_job(std::uint32_t job_id);
  const JobEntry* find_job(std::uint32_t job_id) const;

  sim::Engine& eng_;
  Params params_;
  std::vector<pfs::DataServer*> servers_;
  // Job table indexed by job id - 1: O(1) lookup on the per-op paths
  // (observe, mode), and tick() iterates in ascending id order, which fixes
  // its floating-point accumulation order.
  std::vector<JobEntry> entries_;
  fault::FaultInjector* injector_ = nullptr;
  std::uint32_t servers_down_ = 0;
  double error_ewma_ = 0.0;
  bool degraded_ = false;
  bool ticking_ = false;
  // Fold state: written only by tick().
  double last_req_ = 0.0;
  std::uint64_t switches_ = 0;
  sim::TimeSeries seek_series_;
};

}  // namespace dpar::dualpar
