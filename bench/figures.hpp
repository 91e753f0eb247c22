// The experiment catalogue: one builder per program of the paper's §V
// evaluation, and the figure/table cells built from them.
//
// A builder creates a program's files and jobs on a harness::Testbed under a
// Variant, which picks the MPI-IO driver, the EMC policy and the program's
// collective flag in one place. A cell is one experiment of a figure or
// table: a fresh testbed, one or two builders, and the metrics the figure
// plots. Benches submit cells to an ExperimentPool and only format tables;
// the shape tests call the same builders and cells. As in the CODES workload
// API, a cell says *what* runs and the Testbed is the simulation that runs
// it.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "harness.hpp"
#include "wl/workloads.hpp"

namespace dpar::bench {

/// Job layout of one program: ranks per job, independent instances (each
/// with its own files) and the simulated start time.
struct Jobs {
  std::uint32_t procs = 64;
  std::uint32_t instances = 1;
  sim::Time start_at = 0;
};

/// Create a program's files and jobs on `tb` under `v`; `cfg`'s file ids and
/// collective flag are set here. Returns the first job.
mpi::Job& add(harness::Testbed& tb, Variant v, const wl::DemoConfig& cfg, Jobs jobs = {});
mpi::Job& add(harness::Testbed& tb, Variant v, const wl::MpiIoTestConfig& cfg,
              Jobs jobs = {});
mpi::Job& add(harness::Testbed& tb, Variant v, const wl::HpioConfig& cfg, Jobs jobs = {});
mpi::Job& add(harness::Testbed& tb, Variant v, const wl::IorConfig& cfg, Jobs jobs = {});
mpi::Job& add(harness::Testbed& tb, Variant v, const wl::NoncontigConfig& cfg,
              Jobs jobs = {});
/// Instance i runs with seed `cfg.seed + i`.
mpi::Job& add(harness::Testbed& tb, Variant v, const wl::S3asimConfig& cfg,
              Jobs jobs = {});
mpi::Job& add(harness::Testbed& tb, Variant v, const wl::BtioConfig& cfg, Jobs jobs = {});
mpi::Job& add(harness::Testbed& tb, Variant v, const wl::DependentConfig& cfg,
              Jobs jobs = {});

/// What a run measured: `job` (owned by the testbed) and the whole system.
struct Run {
  std::uint64_t events = 0;
  const mpi::Job* job = nullptr;
  double seconds = 0;     ///< the job's runtime
  double job_mbs = 0;     ///< the job's throughput
  double system_mbs = 0;  ///< all jobs' bytes over first start to last end
  double io_time_s = 0;   ///< all jobs' summed per-process I/O time
};

/// Run `tb` to completion and measure it.
Run finish(harness::Testbed& tb, const mpi::Job& job);

/// One program on its own: add(), then finish().
template <class Config>
Run run(harness::Testbed& tb, Variant v, const Config& cfg, Jobs jobs = {}) {
  return finish(tb, add(tb, v, cfg, jobs));
}

/// §V-B sizes at 1/scale: mpi-io-test reads (or writes) a 2 GB file in
/// 16 KB requests; noncontig is a 64-column array of 512 B elements, 1 GB in
/// all.
wl::MpiIoTestConfig paper_mpi_io_test(std::uint64_t scale, bool is_write = false);
wl::NoncontigConfig paper_noncontig(std::uint64_t scale, bool is_write = false);

/// The §V comparison: submit `cell(v)` for vanilla, collective I/O and
/// DualPar, labelled "<label> <variant>"; returns the submission indices in
/// that order.
template <class Cell>
std::array<std::size_t, 3> submit_row(ExperimentPool& pool, const std::string& label,
                                      Cell cell) {
  std::array<std::size_t, 3> row{};
  std::size_t i = 0;
  for (Variant v : {Variant::kVanilla, Variant::kCollective, Variant::kDualPar})
    row[i++] = pool.submit(label + " " + variant_name(v), [cell, v] { return cell(v); });
  return row;
}

// ---- Figure and table cells; data sizes divided by `scale` ---------------

/// Fig 1: `demo` on 8 ranks. value = runtime (s); aux = {direction reversals
/// on server 1}; detail = server 1's trace 200 ms from mid-run
/// (std::vector<disk::TraceEvent>).
ExperimentStats fig1_demo(Variant v, std::uint64_t file_size, std::uint64_t segment,
                          sim::Time compute_per_call);

/// Fig 3 and the headline summary: one 64-rank `workload` ("mpi-io-test",
/// "noncontig" or "ior-mpi-io"). value = job MB/s; aux = per-call read
/// latency {mean, p50, p99} in ms.
ExperimentStats fig3_single(const std::string& workload, bool is_write, Variant v,
                            std::uint64_t scale);

/// Fig 4: three concurrent BTIO instances of `procs` ranks. value = system
/// MB/s.
ExperimentStats fig4_btio(std::uint32_t procs, Variant v, std::uint64_t scale);

/// Fig 5: three concurrent 16-rank S3asim instances. value = total I/O time
/// (s).
ExperimentStats fig5_s3asim(std::uint32_t queries, Variant v, std::uint64_t scale);

/// Table II / Fig 6: two concurrent 64-rank mpi-io-tests. value = system
/// MB/s; aux = {mean seek distance on server 1}; detail = server 1's trace,
/// 1 s from its median dispatch (std::vector<disk::TraceEvent>).
ExperimentStats table2_pair(bool is_write, Variant v, std::uint64_t scale);

/// Fig 7's join time and per-second series.
inline constexpr sim::Time kFig7JoinAt = sim::secs(5);
struct Timeline {
  sim::TimeSeries throughput;  ///< system MB/s
  sim::TimeSeries seek;        ///< mean seek distance on server 1
};

/// Fig 7: mpi-io-test alone, hpio joins at kFig7JoinAt; both under `v`.
/// value = system MB/s after the join; aux = {MB/s before it, EMC mode
/// switches}; detail = Timeline.
ExperimentStats fig7_join(Variant v, std::uint64_t scale);

/// Fig 8: 64-rank BTIO with a per-process cache quota; 0 runs vanilla.
/// value = job MB/s.
ExperimentStats fig8_btio(std::uint64_t quota, std::uint64_t scale);

/// Table III: the 8-rank data-dependent reader with a cache quota; 0 runs
/// vanilla. value = runtime (s); aux = {latched off (0/1), DualPar cycles}.
ExperimentStats table3_dependent(std::uint64_t quota, std::uint64_t scale);

}  // namespace dpar::bench
