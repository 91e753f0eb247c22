#include "figures.hpp"

#include <vector>

namespace dpar::bench {

namespace {

mpi::IoDriver& driver_for(harness::Testbed& tb, Variant v) {
  switch (v) {
    case Variant::kVanilla: return tb.vanilla();
    case Variant::kCollective: return tb.collective();
    case Variant::kDualPar:
    case Variant::kAdaptive: return tb.dualpar();
    case Variant::kPreexec: return tb.preexec();
  }
  return tb.vanilla();
}

dualpar::Policy policy_for(Variant v) {
  // §V-B: "For execution with DualPar, programs stay in the data-driven
  // mode."
  switch (v) {
    case Variant::kDualPar: return dualpar::Policy::kForcedDataDriven;
    case Variant::kAdaptive: return dualpar::Policy::kAdaptive;
    default: return dualpar::Policy::kForcedNormal;
  }
}

/// Shared body of the add() overloads: per instance, `files` creates that
/// instance's files on its copy of `cfg`, then its job is added. Programs
/// with a collective flag issue collective calls under the collective driver.
template <class Config, class Files>
mpi::Job& add_jobs(harness::Testbed& tb, Variant v, const std::string& name,
                   const Config& cfg, Jobs jobs,
                   std::unique_ptr<mpi::Program> (*make)(const Config&), Files files) {
  mpi::Job* first = nullptr;
  for (std::uint32_t i = 0; i < jobs.instances; ++i) {
    Config c = cfg;
    if constexpr (requires { c.collective; }) c.collective = v == Variant::kCollective;
    files(c, name + std::to_string(i), i);
    mpi::Job& job = tb.add_job(name + std::to_string(i), jobs.procs, driver_for(tb, v),
                               [c, make](std::uint32_t) { return make(c); },
                               policy_for(v), jobs.start_at);
    if (first == nullptr) first = &job;
  }
  return *first;
}

/// Programs with one file of `bytes(cfg)` bytes.
template <class Config, class Bytes>
mpi::Job& add_one_file(harness::Testbed& tb, Variant v, const std::string& name,
                       const Config& cfg, Jobs jobs,
                       std::unique_ptr<mpi::Program> (*make)(const Config&),
                       Bytes bytes) {
  return add_jobs(tb, v, name, cfg, jobs, make,
                  [&](Config& c, const std::string& file, std::uint32_t) {
                    c.file = tb.create_file(file, bytes(c));
                  });
}

std::vector<disk::TraceEvent> trace_from(harness::Testbed& tb, sim::Time t0,
                                         sim::Time length) {
  return tb.server(1).trace().window(t0, t0 + length);
}

}  // namespace

mpi::Job& add(harness::Testbed& tb, Variant v, const wl::DemoConfig& cfg, Jobs jobs) {
  return add_one_file(tb, v, "demo", cfg, jobs, wl::make_demo,
                      [](const wl::DemoConfig& c) { return c.file_size; });
}

mpi::Job& add(harness::Testbed& tb, Variant v, const wl::MpiIoTestConfig& cfg,
              Jobs jobs) {
  return add_one_file(tb, v, "mpi-io-test", cfg, jobs, wl::make_mpi_io_test,
                      [](const wl::MpiIoTestConfig& c) { return c.file_size; });
}

mpi::Job& add(harness::Testbed& tb, Variant v, const wl::HpioConfig& cfg, Jobs jobs) {
  return add_one_file(tb, v, "hpio", cfg, jobs, wl::make_hpio,
                      [procs = jobs.procs](const wl::HpioConfig& c) {
                        const std::uint64_t pitch = c.region_size + c.region_spacing;
                        return procs * c.region_count * pitch;
                      });
}

mpi::Job& add(harness::Testbed& tb, Variant v, const wl::IorConfig& cfg, Jobs jobs) {
  return add_one_file(tb, v, "ior", cfg, jobs, wl::make_ior,
                      [](const wl::IorConfig& c) { return c.file_size; });
}

mpi::Job& add(harness::Testbed& tb, Variant v, const wl::NoncontigConfig& cfg,
              Jobs jobs) {
  return add_one_file(tb, v, "noncontig", cfg, jobs, wl::make_noncontig,
                      [](const wl::NoncontigConfig& c) {
                        return c.columns * c.elmt_count * 4 * c.rows;
                      });
}

mpi::Job& add(harness::Testbed& tb, Variant v, const wl::S3asimConfig& cfg, Jobs jobs) {
  return add_jobs(tb, v, "s3asim", cfg, jobs, wl::make_s3asim,
                  [&](wl::S3asimConfig& c, const std::string& name, std::uint32_t i) {
                    c.seed += i;
                    c.database_file = tb.create_file(name + ".db", c.database_size);
                    c.result_file = tb.create_file(
                        name + ".res",
                        std::uint64_t{jobs.procs} * c.queries * c.max_size + (1 << 20));
                  });
}

mpi::Job& add(harness::Testbed& tb, Variant v, const wl::BtioConfig& cfg, Jobs jobs) {
  return add_one_file(tb, v, "btio", cfg, jobs, wl::make_btio,
                      [](const wl::BtioConfig& c) { return c.total_bytes * 2; });
}

mpi::Job& add(harness::Testbed& tb, Variant v, const wl::DependentConfig& cfg,
              Jobs jobs) {
  return add_one_file(tb, v, "dependent", cfg, jobs, wl::make_dependent,
                      [](const wl::DependentConfig& c) { return c.file_size; });
}

Run finish(harness::Testbed& tb, const mpi::Job& job) {
  Run r;
  r.events = tb.run();
  r.job = &job;
  r.seconds = sim::to_seconds(job.completion_time() - job.start_time());
  r.job_mbs = tb.job_throughput_mbs(job);
  r.system_mbs = tb.system_throughput_mbs();
  r.io_time_s = tb.total_io_time_s();
  return r;
}

wl::MpiIoTestConfig paper_mpi_io_test(std::uint64_t scale, bool is_write) {
  wl::MpiIoTestConfig c;
  c.file_size = (2ull << 30) / scale;
  c.request_size = 16 * 1024;
  c.is_write = is_write;
  return c;
}

wl::NoncontigConfig paper_noncontig(std::uint64_t scale, bool is_write) {
  wl::NoncontigConfig c;
  c.columns = 64;
  c.elmt_count = 128;  // 512-byte elements
  c.rows = (1ull << 30) / scale / (c.columns * c.elmt_count * 4);
  c.is_write = is_write;
  return c;
}

ExperimentStats fig1_demo(Variant v, std::uint64_t file_size, std::uint64_t segment,
                          sim::Time compute_per_call) {
  harness::Testbed tb;
  wl::DemoConfig c;
  c.file_size = file_size;
  c.segment_size = segment;
  c.compute_per_call = compute_per_call;
  const Run r = run(tb, v, c, {8});
  // Sample a window in the middle of the run, as the paper does (5.2-5.4s).
  return {r.seconds,
          r.events,
          {static_cast<double>(trace_reversals(tb.server(1).trace().events()))},
          trace_from(tb, r.job->completion_time() / 2, sim::msec(200))};
}

ExperimentStats fig3_single(const std::string& workload, bool is_write, Variant v,
                            std::uint64_t scale) {
  harness::Testbed tb;
  Run r;
  if (workload == "mpi-io-test") {
    r = run(tb, v, paper_mpi_io_test(scale, is_write));
  } else if (workload == "noncontig") {
    r = run(tb, v, paper_noncontig(scale, is_write));
  } else {  // ior-mpi-io
    wl::IorConfig c;
    c.file_size = (16ull << 30) / scale;
    c.request_size = 32 * 1024;
    c.is_write = is_write;
    r = run(tb, v, c);
  }
  const sim::Histogram lat = r.job->read_latency();
  return {r.job_mbs,
          r.events,
          {lat.mean() / 1000.0, lat.percentile(0.5) / 1000.0,
           lat.percentile(0.99) / 1000.0}};
}

ExperimentStats fig4_btio(std::uint32_t procs, Variant v, std::uint64_t scale) {
  harness::Testbed tb;
  wl::BtioConfig c;
  // Class C is 6.8 GB per instance; tiny vanilla requests make full scale
  // infeasible to simulate, so the data volume is scaled further for this
  // figure while request sizes stay exact (10240/procs bytes).
  c.total_bytes = (6800ull << 20) / scale / 16;
  c.write_steps = 10;
  const Run r = run(tb, v, c, {procs, 3});
  return {r.system_mbs, r.events};
}

ExperimentStats fig5_s3asim(std::uint32_t queries, Variant v, std::uint64_t scale) {
  harness::Testbed tb;
  wl::S3asimConfig c;
  c.database_size = (4ull << 30) / scale;
  c.queries = queries;
  c.seed = 17;
  const Run r = run(tb, v, c, {16, 3});
  return {r.io_time_s, r.events};
}

ExperimentStats table2_pair(bool is_write, Variant v, std::uint64_t scale) {
  harness::Testbed tb;
  const Run r = run(tb, v, paper_mpi_io_test(scale, is_write), {64, 2});
  // Fig 6's window opens at server 1's median dispatch: a fixed point such
  // as the first job's mid-run can fall after a fast variant has finished
  // its server-1 I/O, leaving the sample empty.
  const std::vector<disk::TraceEvent>& ev = tb.server(1).trace().events();
  const sim::Time t0 = ev.empty() ? 0 : ev[ev.size() / 2].time;
  return {r.system_mbs,
          r.events,
          {tb.server(1).trace().mean_seek_distance()},
          trace_from(tb, t0, sim::secs(1))};
}

ExperimentStats fig7_join(Variant v, std::uint64_t scale) {
  harness::Testbed tb;
  // Sized so the solo phase lasts well past the join point at every scale.
  // The benchmark's per-call barrier also bounds how far ranks drift apart,
  // which keeps the solo phase's service order sequential — the reason EMC
  // leaves the lone program in computation-driven mode.
  wl::MpiIoTestConfig mc = paper_mpi_io_test(scale);
  mc.file_size = (24ull << 30) / scale;
  wl::HpioConfig hc;
  hc.region_size = 16 * 1024;
  hc.region_spacing = 0;
  hc.regions_per_call = 1;
  hc.region_count = mc.file_size / 64 / hc.region_size;  // 64 ranks cover the file
  const mpi::Job& solo = add(tb, v, mc);
  add(tb, v, hc, {64, 1, kFig7JoinAt});
  const Run r = finish(tb, solo);
  Timeline t{tb.monitor().throughput_series(), tb.monitor().seek_series()};
  const double before = metrics::series_mean(t.throughput, sim::secs(1), kFig7JoinAt);
  const double after = metrics::series_mean(t.throughput, kFig7JoinAt + sim::secs(1),
                                            kFig7JoinAt + sim::secs(60));
  return {after, r.events,
          {before, static_cast<double>(tb.emc().mode_switches())}, std::move(t)};
}

ExperimentStats fig8_btio(std::uint64_t quota, std::uint64_t scale) {
  harness::TestbedConfig cfg;
  // 0 KB means "DualPar disabled": the run uses the vanilla driver, and the
  // config keeps its (unused) default quota.
  if (quota > 0) cfg.dualpar.cache_quota = quota;
  harness::Testbed tb(cfg);
  wl::BtioConfig c;
  c.total_bytes = (6800ull << 20) / scale / 16;
  c.write_steps = 10;
  const Run r = run(tb, quota > 0 ? Variant::kDualPar : Variant::kVanilla, c);
  return {r.job_mbs, r.events};
}

ExperimentStats table3_dependent(std::uint64_t quota, std::uint64_t scale) {
  harness::TestbedConfig cfg;
  if (quota > 0) cfg.dualpar.cache_quota = quota;
  harness::Testbed tb(cfg);
  wl::DependentConfig c;
  c.file_size = (2ull << 30) / scale;
  c.request_size = 64 * 1024;
  c.requests = c.file_size / c.request_size / 4;
  const Run r = run(tb, quota > 0 ? Variant::kDualPar : Variant::kVanilla, c, {8});
  const bool latched = quota > 0 && tb.emc().latched_off(r.job->id());
  return {r.seconds, r.events,
          {latched ? 1.0 : 0.0, static_cast<double>(tb.dualpar().stats().cycles)}};
}

}  // namespace dpar::bench
