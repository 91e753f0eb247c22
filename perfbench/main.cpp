// The simulator benchmark: builds one workload through the public
// harness::Testbed API, runs it repeatedly on one thread of one process for
// a fixed host-time budget, checks every run's outputs, and prints the
// end-to-end metrics (untraced runs) or the per-layer metrics (untraced
// counters plus traced host self times) with their units. The last stdout
// line is one JSON object; see NOTES.md for every metric.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--tiny] [--plant-mismatch] [--trace-out PATH]
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "harness/testbed.hpp"
#include "sim/debug.hpp"
#include "trace.hpp"
#include "workloads.hpp"

using namespace dpar;
using perfbench::Layer;
using perfbench::Tracer;

namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
  bool plant_mismatch = false;
  std::string trace_out;
};

/// One experiment: set-up, run, checks, and everything it measured.
struct Rep {
  bool traced = false;
  std::string error;  ///< empty when every check passed
  double build_s = 0, create_files_s = 0, add_jobs_s = 0, run_s = 0;
  std::uint64_t events = 0;
  std::vector<Metric> simulated;  ///< repeat exactly for a fixed seed
  std::string digest;
  double self_s[static_cast<int>(Layer::kCount)] = {};
  std::uint64_t layer_calls[static_cast<int>(Layer::kCount)] = {};
  double setup_s() const { return build_s + create_files_s + add_jobs_s; }
};

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }
double mb(std::uint64_t bytes) { return static_cast<double>(bytes) / 1e6; }
double secs(sim::Time t) { return sim::to_seconds(t); }

/// Quantile of a power-of-two-bucket histogram, interpolated linearly inside
/// the containing bucket. Histogram::percentile only names the bucket's upper
/// bound; the bucket's first and last sample ranks are recovered exactly by
/// bisecting on the rank percentile() resolves to.
double interpolated_quantile(const sim::Histogram& h, double q) {
  const std::uint64_t n = h.count();
  if (n == 0) return 0.0;
  // Upper bound of the bucket holding the sample of 1-based rank r.
  auto upper_at = [&](std::uint64_t r) {
    return h.percentile(r >= n ? 1.0 : (static_cast<double>(r) - 0.5) / static_cast<double>(n - 1));
  };
  const std::uint64_t target = static_cast<std::uint64_t>(q * static_cast<double>(n - 1)) + 1;
  const double upper = upper_at(target);
  std::uint64_t lo = 1, hi = target;  // first rank in the bucket
  while (lo < hi) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    if (upper_at(mid) < upper) lo = mid + 1; else hi = mid;
  }
  const std::uint64_t first = lo;
  lo = target;
  hi = n;  // last rank in the bucket
  while (lo < hi) {
    const std::uint64_t mid = lo + (hi - lo + 1) / 2;
    if (upper_at(mid) > upper) hi = mid - 1; else lo = mid;
  }
  const std::uint64_t last = lo;
  const double lower = upper <= 1.0 ? 0.0 : upper / 2;
  const double pos = (static_cast<double>(target - first) + 0.5) /
                     static_cast<double>(last - first + 1);
  return lower + (upper - lower) * pos;
}

/// Every driver shares the testbed's one ClientPool; VanillaDriver keeps it
/// in its protected IoEnv. This reaches it without changing the simulator.
struct EnvOf : mpiio::VanillaDriver {
  static mpiio::IoEnv& of(mpiio::VanillaDriver& d) { return d.*(&EnvOf::env_); }
};

std::uint64_t reversals(const std::vector<disk::TraceEvent>& events) {
  std::uint64_t n = 0;
  for (std::size_t i = 1; i < events.size(); ++i)
    if (events[i].lba < events[i - 1].lba) ++n;
  return n;
}

/// Simulated per-layer counters and the sim_* end-to-end metrics, read from
/// the modules' public counters after the run.
std::vector<Metric> collect(harness::Testbed& tb, const std::vector<mpi::Job*>& jobs,
                            std::uint64_t events) {
  std::vector<Metric> m;
  auto add = [&m](const char* name, double v, const char* unit) { m.push_back({name, v, unit}); };

  sim::Histogram lat;
  sim::Time io_time = 0, compute_time = 0;
  for (mpi::Job* j : jobs) {
    lat.merge(j->read_latency());
    lat.merge(j->write_latency());
    io_time += j->total_io_time();
    compute_time += j->total_compute_time();
  }
  const std::uint64_t io_calls = lat.count();
  add("sim_mbs", tb.system_throughput_mbs(), "MB/s");
  add("sim_io_p50_ms", interpolated_quantile(lat, 0.50) / 1e3, "ms");
  add("sim_io_p99_ms", interpolated_quantile(lat, 0.99) / 1e3, "ms");

  add("sim.events", static_cast<double>(events), "count");
  add("sim.events_per_call", ratio(static_cast<double>(events), static_cast<double>(io_calls)),
      "events/call");
  add("sim.slab_slots", static_cast<double>(tb.engine().slab_slots()), "count");

  net::Network& net = tb.network();
  sim::Time tx_max = 0;
  for (std::uint32_t n = 0; n < net.num_nodes(); ++n) tx_max = std::max(tx_max, net.tx_busy_time(n));
  add("net.messages", static_cast<double>(net.messages_sent()), "count");
  add("net.bytes", static_cast<double>(net.bytes_sent()), "B");
  add("net.tx_busy_max_s", secs(tx_max), "s");

  std::uint64_t disk_reqs = 0, disk_bytes = 0, disk_rev = 0;
  sim::Time disk_busy = 0;
  std::uint64_t srv_reqs = 0, srv_read = 0, srv_write = 0, srv_disk_read = 0;
  std::uint64_t pc_hits = 0, pc_misses = 0;
  for (std::uint32_t s = 0; s < tb.num_servers(); ++s) {
    pfs::DataServer& srv = tb.server(s);
    std::vector<disk::DiskDevice*> disks;
    if (auto* raid = dynamic_cast<disk::Raid0Device*>(&srv.device())) {
      disks = {&raid->member(0), &raid->member(1)};
    } else if (auto* d = dynamic_cast<disk::DiskDevice*>(&srv.device())) {
      disks = {d};
    }
    for (disk::DiskDevice* d : disks) {
      disk_reqs += d->requests_served();
      disk_bytes += d->bytes_served();
      disk_busy += d->busy_time();
      disk_rev += reversals(d->trace().events());
    }
    srv_reqs += srv.requests_handled();
    srv_read += srv.bytes_read();
    srv_write += srv.bytes_written();
    srv_disk_read += srv.disk_bytes_read();
    pc_hits += srv.page_cache().hits();
    pc_misses += srv.page_cache().misses();
  }
  add("disk.requests", static_cast<double>(disk_reqs), "count");
  add("disk.bytes", static_cast<double>(disk_bytes), "B");
  add("disk.busy_s", secs(disk_busy), "s");
  add("disk.kb_per_request", ratio(static_cast<double>(disk_bytes) / 1024, static_cast<double>(disk_reqs)),
      "KB");
  add("disk.reversals", static_cast<double>(disk_rev), "count");

  std::uint64_t client_calls = 0;
  mpiio::ClientPool& clients = EnvOf::of(tb.vanilla()).clients;
  for (cluster::ComputeNode* node : tb.compute_nodes()) client_calls += clients.for_node(node->id()).calls();
  add("pfs.client_calls", static_cast<double>(client_calls), "count");
  add("pfs.server_requests", static_cast<double>(srv_reqs), "count");
  add("pfs.server_read_mb", mb(srv_read), "MB");
  add("pfs.server_write_mb", mb(srv_write), "MB");
  add("pfs.disk_read_mb", mb(srv_disk_read), "MB");
  add("pfs.readahead_useful", ratio(static_cast<double>(srv_read), static_cast<double>(srv_disk_read)),
      "ratio");
  add("pfs.page_cache_hit_ratio",
      ratio(static_cast<double>(pc_hits), static_cast<double>(pc_hits + pc_misses)), "ratio");

  add("mpi.io_calls", static_cast<double>(io_calls), "count");
  add("mpi.io_time_s", secs(io_time), "s");
  add("mpi.compute_time_s", secs(compute_time), "s");
  add("mpi.io_share", ratio(secs(io_time), secs(io_time + compute_time)), "ratio");

  sim::Time normal_cpu = 0, ghost_cpu = 0;
  for (cluster::ComputeNode* node : tb.compute_nodes()) {
    normal_cpu += node->normal_cpu_time();
    ghost_cpu += node->ghost_cpu_time();
  }
  add("cluster.normal_cpu_s", secs(normal_cpu), "s");
  add("cluster.ghost_cpu_s", secs(ghost_cpu), "s");

  add("mpiio.collective_rounds", static_cast<double>(tb.collective().collective_rounds()), "count");
  add("mpiio.shuffle_mb", mb(tb.collective().shuffle_bytes()), "MB");

  const dualpar::DriverStats& dp = tb.dualpar().stats();
  add("dualpar.cycles", static_cast<double>(dp.cycles), "count");
  add("dualpar.prefetch_mb", mb(dp.prefetch_bytes), "MB");
  add("dualpar.cache_hit_mb", mb(dp.cache_hit_bytes), "MB");
  add("dualpar.prefetch_useful",
      ratio(static_cast<double>(dp.cache_hit_bytes), static_cast<double>(dp.prefetch_bytes)), "ratio");
  add("dualpar.miss_direct_mb", mb(dp.miss_direct_bytes), "MB");
  add("dualpar.writeback_mb", mb(dp.writeback_bytes), "MB");
  add("dualpar.ghost_forks", static_cast<double>(dp.ghost_forks), "count");
  add("dualpar.deadline_expiries", static_cast<double>(dp.deadline_expiries), "count");
  add("dualpar.emc_mode_switches", static_cast<double>(tb.emc().mode_switches()), "count");

  add("cache.chunks", static_cast<double>(tb.cache().chunk_count()), "count");
  add("cache.valid_mb", mb(tb.cache().total_valid_bytes()), "MB");
  add("cache.capacity_evictions", static_cast<double>(tb.cache().capacity_evictions()), "count");

  const fault::Counters fc = tb.fault_injector() ? tb.fault_injector()->total() : fault::Counters{};
  add("fault.client_ops", static_cast<double>(fc.client_ops_started), "count");
  add("fault.client_timeouts", static_cast<double>(fc.client_timeouts), "count");
  add("fault.client_retries", static_cast<double>(fc.client_retries), "count");
  add("fault.client_recoveries", static_cast<double>(fc.client_recoveries), "count");
  add("fault.client_failures", static_cast<double>(fc.client_failures), "count");
  add("fault.server_refused", static_cast<double>(fc.server_refused_requests), "count");
  add("fault.server_lost_completions", static_cast<double>(fc.server_lost_completions), "count");
  add("fault.retry_success",
      ratio(static_cast<double>(fc.client_recoveries), static_cast<double>(fc.client_retries)), "ratio");

  replica::DurabilityReport rep;
  if (replica::RepairManager* mgr = tb.replica_manager()) rep = mgr->report();
  const replica::Counters& rc = rep.counters;
  add("replica.write_copy_shards", static_cast<double>(rc.write_copy_shards), "count");
  add("replica.degraded_reads", static_cast<double>(rc.degraded_reads), "count");
  add("replica.failover_shards", static_cast<double>(rc.failover_shards), "count");
  add("replica.repair_ops_issued", static_cast<double>(rc.repair_ops_issued), "count");
  add("replica.repair_ops_completed", static_cast<double>(rc.repair_ops_completed), "count");
  add("replica.repair_success",
      ratio(static_cast<double>(rc.repair_ops_completed), static_cast<double>(rc.repair_ops_issued)),
      "ratio");
  add("replica.repair_mb", mb(rc.repair_bytes_copied), "MB");
  add("replica.lost_chunks", static_cast<double>(rep.lost_chunks), "count");
  return m;
}

const Metric* find(const std::vector<Metric>& m, const std::string& name) {
  for (const Metric& x : m)
    if (x.name == name) return &x;
  return nullptr;
}

/// FNV-1a over the simulated metrics and per-job completion times.
std::string digest_of(const std::vector<Metric>& simulated, const std::vector<mpi::Job*>& jobs) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  auto feed = [&h](const std::string& s) {
    for (unsigned char c : s) {
      h ^= c;
      h *= 0x100000001b3ull;
    }
  };
  char buf[64];
  for (const Metric& m : simulated) {
    std::snprintf(buf, sizeof buf, "=%.17g\n", m.value);
    feed(m.name + buf);
  }
  for (mpi::Job* j : jobs)
    feed(j->name() + "=" + std::to_string(j->completion_time()) + "\n");
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

/// Bytes each job's generated programs issue, walked outside any simulation.
std::vector<std::uint64_t> expected_bytes(const perfbench::Plan& plan) {
  std::vector<pfs::FileId> ids;
  for (std::size_t i = 0; i < plan.files.size(); ++i) ids.push_back(static_cast<pfs::FileId>(i + 1));
  std::vector<std::uint64_t> out;
  for (const perfbench::JobPlan& jp : plan.jobs) {
    const mpi::Job::ProgramFactory factory = jp.factory(ids);
    std::uint64_t bytes = 0;
    for (std::uint32_t r = 0; r < jp.nprocs; ++r) {
      std::unique_ptr<mpi::Program> prog = factory(r);
      mpi::ProgramContext ctx;
      ctx.rank = r;
      ctx.nprocs = jp.nprocs;
      for (;;) {
        mpi::Op op = prog->next(ctx);
        if (std::holds_alternative<mpi::OpEnd>(op)) break;
        if (const auto* io = std::get_if<mpi::OpIo>(&op)) bytes += io->call.total_bytes();
      }
    }
    out.push_back(bytes);
  }
  return out;
}

mpi::IoDriver& driver_of(harness::Testbed& tb, perfbench::DriverKind k) {
  switch (k) {
    case perfbench::DriverKind::kVanilla: return tb.vanilla();
    case perfbench::DriverKind::kCollective: return tb.collective();
    case perfbench::DriverKind::kDualPar: return tb.dualpar();
  }
  return tb.vanilla();
}

Rep run_rep(const perfbench::Plan& plan, const std::vector<std::uint64_t>& expected,
            bool traced, const std::string& trace_out) {
  Rep r;
  r.traced = traced;
  std::unique_ptr<Tracer> tracer;
  std::vector<std::unique_ptr<perfbench::TracedDriver>> wrapped;
  std::unique_ptr<harness::Testbed> tb;
  std::vector<mpi::Job*> jobs;
  try {
    auto t0 = Clock::now();
    tb = std::make_unique<harness::Testbed>(plan.cfg);
    r.build_s = since(t0);

    t0 = Clock::now();
    std::vector<pfs::FileId> ids;
    for (const perfbench::FilePlan& f : plan.files) ids.push_back(tb->create_file(f.name, f.size));
    r.create_files_s = since(t0);

    t0 = Clock::now();
    if (traced) tracer = std::make_unique<Tracer>(plan.jobs.size());
    for (std::uint32_t i = 0; i < plan.jobs.size(); ++i) {
      const perfbench::JobPlan& jp = plan.jobs[i];
      mpi::IoDriver* drv = &driver_of(*tb, jp.driver);
      mpi::Job::ProgramFactory factory = jp.factory(ids);
      if (traced) {
        const Layer issue =
            jp.driver == perfbench::DriverKind::kDualPar ? Layer::kDualparIssue : Layer::kMpiioIssue;
        wrapped.push_back(std::make_unique<perfbench::TracedDriver>(*drv, *tracer, i, issue));
        drv = wrapped.back().get();
        factory = [inner = std::move(factory), t = tracer.get(), i](std::uint32_t rank) {
          return std::unique_ptr<mpi::Program>(
              std::make_unique<perfbench::TracedProgram>(inner(rank), *t, i));
        };
      }
      jobs.push_back(&tb->add_job(jp.name, jp.nprocs, *drv, factory, jp.policy, jp.start_at));
    }
    r.add_jobs_s = since(t0);

    if (tracer) tracer->mark_run_start();
    t0 = Clock::now();
    r.events = tb->run();
    r.run_s = since(t0);
  } catch (const std::exception& e) {
    r.error = std::string("exception: ") + e.what();
    return r;
  }

  r.simulated = collect(*tb, jobs, r.events);
  r.digest = digest_of(r.simulated, jobs);
  if (tracer) {
    for (int l = 0; l < static_cast<int>(Layer::kCount); ++l) {
      r.self_s[l] = tracer->self_s(static_cast<Layer>(l));
      r.layer_calls[l] = tracer->calls(static_cast<Layer>(l));
    }
    if (!trace_out.empty()) {
      std::vector<std::string> names;
      for (const perfbench::JobPlan& jp : plan.jobs) names.push_back(jp.name);
      try {
        tracer->write(trace_out, names);
      } catch (const std::exception& e) {
        r.error = e.what();
        return r;
      }
    }
  }

  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (!jobs[i]->finished()) {
      r.error = "job " + jobs[i]->name() + " unfinished";
    } else if (jobs[i]->total_bytes() != expected[i]) {
      r.error = "job " + jobs[i]->name() + " completed " + std::to_string(jobs[i]->total_bytes()) +
                " bytes, its programs issued " + std::to_string(expected[i]);
    }
    if (!r.error.empty()) return r;
  }
  if (tb->engine().live_events() != 0) {
    r.error = "engine not drained: " + std::to_string(tb->engine().live_events()) + " live events";
  } else if (find(r.simulated, "replica.lost_chunks")->value != 0) {
    r.error = "replication lost chunks";
  }
  return r;
}

/// The experiment of the given kind with the smallest `key`. Every experiment
/// of one seed does identical work, so host-time noise (other tenants of the
/// machine slowing whole stretches of experiments) only ever adds time; the
/// fastest experiment is the least disturbed measurement of that work.
template <class F>
const Rep& fastest(const std::vector<Rep>& reps, bool traced, F key) {
  const Rep* best = nullptr;
  for (const Rep& r : reps)
    if (r.traced == traced && (best == nullptr || key(r) < key(*best))) best = &r;
  return *best;
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6) / 1024.0;  // kB
  return 0.0;
}

/// Refuse configurations whose numbers would not measure the shipped
/// defaults. Returns an explanation, or empty when the run may proceed.
std::string environment_refusal() {
#if DPAR_CHECK_INVARIANTS
  return "built with DPAR_CHECK_INVARIANTS";
#endif
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0)
    return std::string("build type is ") + PERFBENCH_BUILD_TYPE + ", not Release";
  for (const char* var : {"DPAR_CHECK_INVARIANTS", "DPAR_PDES_WORKERS", "DPAR_ENGINE_QUEUE"})
    if (std::getenv(var) != nullptr) return std::string(var) + " is set";
  return "";
}

void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1\n"
               "                 [--tiny] [--plant-mismatch] [--trace-out PATH]\n");
}

bool parse(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    const char* v = nullptr;
    if (a == "--tiny") {
      o.tiny = true;
    } else if (a == "--plant-mismatch") {
      o.plant_mismatch = true;
    } else if ((v = value()) == nullptr) {
      return false;
    } else if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      o.seconds = std::atof(v);
    } else if (a == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) return false;
      o.trace = v[0] == '1';
    } else if (a == "--trace-out") {
      o.trace_out = v;
    } else {
      return false;
    }
  }
  return !o.workload.empty() && o.seconds > 0;
}

void print_metric(const Metric& m) {
  std::printf("  %-30s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse(argc, argv, opt)) {
    usage();
    return 2;
  }
  if (const std::string why = environment_refusal(); !why.empty()) {
    std::fprintf(stderr, "perfbench: refusing to run: %s\n", why.c_str());
    return 2;
  }
  perfbench::Plan plan;
  try {
    plan = perfbench::make_plan(opt.workload, opt.seed, opt.tiny);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }

  std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d%s\n", opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.seconds, opt.trace ? 1 : 0,
              opt.tiny ? " tiny" : "");
  std::printf("# host: %u hardware threads, compiler %s, build %s\n",
              std::thread::hardware_concurrency(), __VERSION__, PERFBENCH_BUILD_TYPE);
  for (const char* var : {"DPAR_SCALE", "DPAR_BENCH_FILTER", "DPAR_BENCH_REPEAT", "DPAR_JOBS"})
    if (std::getenv(var) != nullptr) std::printf("# %s is set and ignored: sizes are fixed\n", var);
  // The testbed's defaults, resolved the way Testbed resolves them.
  std::printf("# engine: %s queue, %u PDES workers\n",
              sim::queue_kind_from_env() == sim::QueueKind::kLadder ? "ladder" : "heap",
              harness::pdes_workers_from_env());
  std::printf("# inputs: %s\n", plan.inputs.c_str());

  std::vector<std::uint64_t> expected = expected_bytes(plan);
  if (opt.plant_mismatch) expected[0] += 1;

  // Untraced and (with --trace 1) traced experiments alternate until the
  // budget is spent; at least three untraced ones, or two of each.
  const unsigned min_untraced = opt.trace ? 2 : 3;
  const unsigned min_traced = opt.trace ? 2 : 0;
  std::vector<Rep> reps;
  unsigned untraced = 0, traced = 0;
  double rss_mb = 0;
  const auto start = Clock::now();
  while (untraced < min_untraced || traced < min_traced || since(start) < opt.seconds) {
    const bool t = opt.trace && traced < untraced;
    reps.push_back(run_rep(plan, expected, t, t ? opt.trace_out : std::string()));
    // Peak RSS of a process that has run the workload once; later runs only
    // add allocator reuse noise.
    if (reps.size() == 1) rss_mb = peak_rss_mb();
    (t ? traced : untraced) += 1;
    const Rep& r = reps.back();
    std::printf("# run %zu%s: setup %.4f s, run %.4f s, %llu events, digest %s%s%s\n", reps.size(),
                t ? " (traced)" : "", r.setup_s(), r.run_s, static_cast<unsigned long long>(r.events),
                r.digest.c_str(), r.error.empty() ? "" : ", FAILED: ", r.error.c_str());
  }

  // Every experiment of one seed must simulate the same thing, traced or not.
  const std::string& digest = reps.front().digest;
  std::uint64_t failed = 0;
  for (Rep& r : reps) {
    if (r.error.empty() && r.digest != digest)
      r.error = "digest " + r.digest + " differs from " + digest;
    if (!r.error.empty()) ++failed;
  }
  const Rep& first = reps.front();

  auto by_run = [](const Rep& r) { return r.run_s; };
  auto by_setup = [](const Rep& r) { return r.setup_s(); };
  const Rep& best_run = fastest(reps, false, by_run);
  const Rep& best_setup = fastest(reps, false, by_setup);
  std::vector<double> runs;
  for (const Rep& r : reps)
    if (!r.traced) runs.push_back(r.run_s);
  std::sort(runs.begin(), runs.end());
  std::printf("# untraced run_s over %zu experiments: min %.6f, median %.6f, max %.6f\n", runs.size(),
              runs.front(), runs[runs.size() / 2], runs.back());

  std::vector<Metric> out;
  if (!opt.trace) {
    out.push_back({"run_s", best_run.run_s, "s"});
    out.push_back({"setup_s", best_setup.setup_s(), "s"});
    out.push_back({"peak_rss_mb", rss_mb, "MB"});
    for (const char* name : {"sim_mbs", "sim_io_p50_ms", "sim_io_p99_ms"})
      if (const Metric* m = find(first.simulated, name)) out.push_back(*m);
  } else {
    for (const Metric& m : first.simulated)
      if (m.name.rfind("sim_", 0) != 0) out.push_back(m);
    out.push_back({"sim.host_ns_per_event", ratio(best_run.run_s * 1e9, static_cast<double>(first.events)),
                   "ns"});
    out.push_back({"harness.build_s", best_setup.build_s, "s"});
    out.push_back({"harness.create_files_s", best_setup.create_files_s, "s"});
    out.push_back({"harness.add_jobs_s", best_setup.add_jobs_s, "s"});
    const Rep& tr = fastest(reps, true, by_run);
    auto self = [&tr](Layer l) { return tr.self_s[static_cast<int>(l)]; };
    auto calls = [&tr](Layer l) { return static_cast<double>(tr.layer_calls[static_cast<int>(l)]); };
    double layers_s = 0;
    for (Layer l : {Layer::kMpiioIssue, Layer::kDualparIssue, Layer::kWlNext}) layers_s += self(l);
    out.push_back({"mpiio.issue_s", self(Layer::kMpiioIssue), "s"});
    out.push_back({"mpiio.issue_us_per_call",
                   ratio(self(Layer::kMpiioIssue) * 1e6, calls(Layer::kMpiioIssue)), "us"});
    out.push_back({"dualpar.issue_s", self(Layer::kDualparIssue), "s"});
    out.push_back({"dualpar.issue_us_per_call",
                   ratio(self(Layer::kDualparIssue) * 1e6, calls(Layer::kDualparIssue)), "us"});
    out.push_back({"wl.ops", calls(Layer::kWlNext), "count"});
    out.push_back({"wl.next_s", self(Layer::kWlNext), "s"});
    out.push_back({"trace.run_s", tr.run_s, "s"});
    out.push_back({"trace.dispatched_s", tr.run_s - layers_s, "s"});
    out.push_back({"trace.overhead", ratio(tr.run_s, best_run.run_s), "ratio"});
  }

  std::printf("# results (%s):\n", opt.trace ? "per-layer" : "end-to-end");
  for (const Metric& m : out) print_metric(m);
  if (const Metric* calls = find(first.simulated, "mpi.io_calls"))
    std::printf("# latency samples (mpi.io_calls): %.0f\n", calls->value);
  std::printf("# digest %s, seed %llu, failed_frac %.6f (%llu of %zu)\n", digest.c_str(),
              static_cast<unsigned long long>(opt.seed),
              static_cast<double>(failed) / static_cast<double>(reps.size()),
              static_cast<unsigned long long>(failed), reps.size());

  std::string json = "{\"correct\": ";
  json += failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(reps.size()) + ", \"failed\": " + std::to_string(failed) +
          ", \"metrics\": {";
  for (std::size_t i = 0; i < out.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(out[i].value) ? out[i].value : 0.0);
    json += (i ? ", \"" : "\"") + out[i].name + "\": {\"value\": " + buf + ", \"unit\": \"" +
            out[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return failed == 0 ? 0 : 1;
}
