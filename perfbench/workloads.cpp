#include "workloads.hpp"

#include <cstdio>
#include <stdexcept>

#include "sim/rng.hpp"
#include "wl/workloads.hpp"

namespace perfbench {

using namespace dpar;

namespace {

/// Data volumes divide by this in the self-test's tiny runs.
constexpr std::uint64_t kTinyDivisor = 16;

std::string ms(sim::Time t) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3fms", sim::to_seconds(t) * 1e3);
  return buf;
}

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Three concurrent BTIO instances at 256 ranks (Fig 4's critical path):
/// a write phase of interleaved 40 B cells, then the read-back.
Plan btio(bool collective, std::uint64_t seed, std::uint64_t div) {
  Plan p;
  sim::Rng rng(seed ^ 0xb710);
  // Fig 4 uses (6800 MB / DPAR_SCALE=16 / 16) per instance; an eighth of it
  // keeps one vanilla run near a second of host time.
  const std::uint64_t per_instance = (6800ull << 20) / 16 / 16 / 8 / div;
  for (std::uint32_t i = 0; i < 3; ++i) {
    const std::string name = "btio" + std::to_string(i);
    p.files.push_back({name, per_instance * 2});
    JobPlan j;
    j.name = name;
    j.nprocs = 256;
    j.driver = collective ? DriverKind::kCollective : DriverKind::kVanilla;
    j.start_at = sim::usec(static_cast<std::int64_t>(rng.uniform(1'000)));
    j.factory = [i, per_instance, collective](const std::vector<pfs::FileId>& files) {
      wl::BtioConfig cfg;
      cfg.file = files[i];
      cfg.total_bytes = per_instance;
      cfg.write_steps = 10;
      cfg.read_back = true;
      cfg.collective = collective;
      return mpi::Job::ProgramFactory([cfg](std::uint32_t) { return wl::make_btio(cfg); });
    };
    p.inputs += (i ? " " : "") + name + "@" + ms(j.start_at);
    p.jobs.push_back(std::move(j));
  }
  return p;
}

/// Fig 7's shape with a writer: a 64-rank mpi-io-test reader starts alone,
/// a 64-rank HPIO writer joins, both on DualPar under the adaptive policy.
Plan dualpar_adaptive_rw(std::uint64_t seed, std::uint64_t div) {
  Plan p;
  sim::Rng rng(seed ^ 0xd0a1);
  const std::uint64_t fsize = (512ull << 20) / div;
  const sim::Time join_at =
      sim::msec(1000) + sim::usec(static_cast<std::int64_t>(rng.uniform(20'000)));
  p.files = {{"mpiio.dat", fsize}, {"hpio.dat", fsize}};

  JobPlan reader;
  reader.name = "mpi-io-test";
  reader.nprocs = 64;
  reader.driver = DriverKind::kDualPar;
  reader.policy = dualpar::Policy::kAdaptive;
  reader.factory = [fsize](const std::vector<pfs::FileId>& files) {
    wl::MpiIoTestConfig mc;
    mc.file = files[0];
    mc.file_size = fsize;
    mc.request_size = 16 * 1024;
    mc.barrier_every_call = true;
    return mpi::Job::ProgramFactory([mc](std::uint32_t) { return wl::make_mpi_io_test(mc); });
  };

  JobPlan writer;
  writer.name = "hpio-write";
  writer.nprocs = 64;
  writer.driver = DriverKind::kDualPar;
  writer.policy = dualpar::Policy::kAdaptive;
  writer.start_at = join_at;
  writer.factory = [fsize](const std::vector<pfs::FileId>& files) {
    wl::HpioConfig hc;
    hc.file = files[1];
    hc.region_size = 16 * 1024;
    hc.region_spacing = 0;
    hc.regions_per_call = 1;
    hc.region_count = fsize / 64 / hc.region_size;
    hc.is_write = true;
    return mpi::Job::ProgramFactory([hc](std::uint32_t) { return wl::make_hpio(hc); });
  };
  p.jobs = {std::move(reader), std::move(writer)};
  p.inputs = "hpio-write joins @" + ms(join_at);
  return p;
}

/// Write-then-read at replication factor 3 while one data server crashes
/// and restarts: writes fan out, reads fail over, repair re-replicates.
Plan replica_crash(std::uint64_t seed, std::uint64_t div) {
  Plan p;
  sim::Rng rng(seed ^ 0x4e91);
  p.cfg.keep_traces = true;
  p.cfg.replica.replication_factor = 3;
  p.cfg.replica.placement = replica::Placement::kRotational;
  p.cfg.replica.fanout = replica::WriteFanout::kStar;
  p.cfg.fault.seed = rng.next_u64();
  // The write phase ends near 3.1 s of simulated time, so the crash lands
  // in the read-back: reads fail over, and the crash invalidates the
  // server's copies, which repair re-replicates. The outage outlasts a
  // read's failover patience (timeout + backoff + second timeout, ~250 ms
  // under the default retry policy).
  const sim::Time crash_at =
      sim::msec(3200) + sim::usec(static_cast<std::int64_t>(rng.uniform(20'000)));
  const sim::Time restart_at = crash_at + sim::msec(450);
  p.cfg.fault.server.crashes.push_back({4, crash_at, restart_at});

  const std::uint64_t total = (128ull << 20) / div;
  p.files = {{"replica.dat", total * 2}};
  JobPlan j;
  j.name = "replica";
  j.nprocs = 16;
  j.factory = [total](const std::vector<pfs::FileId>& files) {
    wl::BtioConfig bc;
    bc.file = files[0];
    bc.total_bytes = total;
    bc.row_bytes = 1 << 20;  // 64 KB per rank per row
    bc.write_steps = 5;
    bc.read_back = true;
    return mpi::Job::ProgramFactory([bc](std::uint32_t) { return wl::make_btio(bc); });
  };
  p.jobs = {std::move(j)};
  p.inputs = "fault seed " + hex(p.cfg.fault.seed) + ", server 4 down " + ms(crash_at) +
             "-" + ms(restart_at);
  return p;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{"btio-vanilla", "btio-collective",
                                              "dualpar-adaptive-rw", "replica-crash"};
  return names;
}

Plan make_plan(const std::string& name, std::uint64_t seed, bool tiny) {
  const std::uint64_t div = tiny ? kTinyDivisor : 1;
  if (name == "btio-vanilla") return btio(false, seed, div);
  if (name == "btio-collective") return btio(true, seed, div);
  if (name == "dualpar-adaptive-rw") return dualpar_adaptive_rw(seed, div);
  if (name == "replica-crash") return replica_crash(seed, div);
  throw std::invalid_argument("unknown workload: " + name);
}

}  // namespace perfbench
