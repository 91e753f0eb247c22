// Parameterized property suites: every (driver x workload) pair must
// complete without deadlock, conserve bytes, be deterministic, and leave the
// system in a clean state; every scheduler and every cache quota must
// preserve those invariants too.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>

#include "harness/testbed.hpp"
#include "wl/workloads.hpp"

namespace dpar {
namespace {

enum class Wl { kDemo, kMpiIoTest, kHpio, kIor, kNoncontig, kS3asim, kBtio, kDependent };
enum class Drv { kVanilla, kCollective, kDualPar, kPreexec };

const char* wl_name(Wl w) {
  switch (w) {
    case Wl::kDemo: return "demo";
    case Wl::kMpiIoTest: return "mpiiotest";
    case Wl::kHpio: return "hpio";
    case Wl::kIor: return "ior";
    case Wl::kNoncontig: return "noncontig";
    case Wl::kS3asim: return "s3asim";
    case Wl::kBtio: return "btio";
    case Wl::kDependent: return "dependent";
  }
  return "?";
}
const char* drv_name(Drv d) {
  switch (d) {
    case Drv::kVanilla: return "vanilla";
    case Drv::kCollective: return "collective";
    case Drv::kDualPar: return "dualpar";
    case Drv::kPreexec: return "preexec";
  }
  return "?";
}

struct Scenario {
  mpi::Job::ProgramFactory factory;
  std::uint64_t expected_bytes = 0;  ///< exact application bytes, 0 = skip check
  bool has_writes = false;
};

Scenario make_scenario(harness::Testbed& tb, Wl w, std::uint32_t procs) {
  Scenario s;
  switch (w) {
    case Wl::kDemo: {
      wl::DemoConfig c;
      c.file_size = 4 << 20;
      c.segment_size = 16 * 1024;
      c.file = tb.create_file("demo", c.file_size);
      s.factory = [c](std::uint32_t) { return wl::make_demo(c); };
      s.expected_bytes = c.file_size;
      break;
    }
    case Wl::kMpiIoTest: {
      wl::MpiIoTestConfig c;
      c.file_size = 4 << 20;
      c.request_size = 16 * 1024;
      c.file = tb.create_file("mit", c.file_size);
      s.factory = [c](std::uint32_t) { return wl::make_mpi_io_test(c); };
      s.expected_bytes = c.file_size;
      break;
    }
    case Wl::kHpio: {
      wl::HpioConfig c;
      c.region_count = 64;
      c.region_size = 16 * 1024;
      c.region_spacing = 1024;
      c.file = tb.create_file(
          "hpio", std::uint64_t{procs} * c.region_count *
                          (c.region_size + c.region_spacing) + (1 << 20));
      s.factory = [c](std::uint32_t) { return wl::make_hpio(c); };
      s.expected_bytes = std::uint64_t{procs} * 64 * 16 * 1024;
      break;
    }
    case Wl::kIor: {
      wl::IorConfig c;
      c.file_size = 4 << 20;
      c.request_size = 32 * 1024;
      c.file = tb.create_file("ior", c.file_size);
      s.factory = [c](std::uint32_t) { return wl::make_ior(c); };
      s.expected_bytes = c.file_size;
      break;
    }
    case Wl::kNoncontig: {
      wl::NoncontigConfig c;
      c.columns = procs;
      c.elmt_count = 64;
      c.rows = 256;
      c.file = tb.create_file("nc", c.columns * c.elmt_count * 4 * c.rows);
      s.factory = [c](std::uint32_t) { return wl::make_noncontig(c); };
      s.expected_bytes = std::uint64_t{procs} * 64 * 4 * 256;
      break;
    }
    case Wl::kS3asim: {
      wl::S3asimConfig c;
      c.database_size = 8 << 20;
      c.queries = 3;
      c.fragments = 4;
      c.max_size = 10'000;
      c.database_file = tb.create_file("db", c.database_size);
      c.result_file =
          tb.create_file("res", std::uint64_t{procs} * c.queries * c.max_size + (1 << 20));
      s.factory = [c](std::uint32_t) { return wl::make_s3asim(c); };
      s.has_writes = true;
      break;
    }
    case Wl::kBtio: {
      wl::BtioConfig c;
      c.total_bytes = 2 << 20;
      c.write_steps = 4;
      c.read_back = true;
      c.file = tb.create_file("btio", c.total_bytes * 2);
      s.factory = [c](std::uint32_t) { return wl::make_btio(c); };
      s.has_writes = true;
      break;
    }
    case Wl::kDependent: {
      wl::DependentConfig c;
      c.file_size = 16 << 20;
      c.request_size = 64 * 1024;
      c.requests = 20;
      c.file = tb.create_file("dep", c.file_size);
      s.factory = [c](std::uint32_t) { return wl::make_dependent(c); };
      s.expected_bytes = std::uint64_t{procs} * 20 * 64 * 1024;
      break;
    }
  }
  return s;
}

harness::TestbedConfig tiny_config() {
  harness::TestbedConfig cfg;
  cfg.data_servers = 3;
  cfg.compute_nodes = 2;
  cfg.cores_per_node = 8;
  return cfg;
}

struct RunResult {
  sim::Time completion;
  std::uint64_t app_bytes;
  std::uint64_t server_read;
  std::uint64_t server_written;
  std::uint64_t dirty_left;
};

RunResult run_matrix(Wl w, Drv d) {
  harness::Testbed tb(tiny_config());
  const std::uint32_t procs = 4;
  Scenario s = make_scenario(tb, w, procs);
  mpi::IoDriver& drv = d == Drv::kVanilla      ? static_cast<mpi::IoDriver&>(tb.vanilla())
                       : d == Drv::kCollective ? static_cast<mpi::IoDriver&>(tb.collective())
                       : d == Drv::kDualPar    ? static_cast<mpi::IoDriver&>(tb.dualpar())
                                               : static_cast<mpi::IoDriver&>(tb.preexec());
  auto& job = tb.add_job(wl_name(w), procs, drv, s.factory,
                         d == Drv::kDualPar ? dualpar::Policy::kForcedDataDriven
                                            : dualpar::Policy::kForcedNormal);
  tb.run(/*max_events=*/200'000'000);
  RunResult r{};
  r.completion = job.completion_time();
  r.app_bytes = job.total_bytes();
  for (std::uint32_t i = 0; i < tb.num_servers(); ++i) {
    r.server_read += tb.server(i).bytes_read();
    r.server_written += tb.server(i).bytes_written();
  }
  r.dirty_left = tb.cache().all_dirty_segments().size();
  if (s.expected_bytes > 0) {
    EXPECT_EQ(r.app_bytes, s.expected_bytes);
  }
  return r;
}

class DriverWorkloadMatrix : public ::testing::TestWithParam<std::tuple<Wl, Drv>> {};

TEST_P(DriverWorkloadMatrix, CompletesConservesAndFlushes) {
  const auto [w, d] = GetParam();
  const RunResult r = run_matrix(w, d);
  EXPECT_GT(r.completion, 0);
  EXPECT_GT(r.app_bytes, 0u);
  // Nothing dirty may remain after the job ends (write-back + final flush).
  EXPECT_EQ(r.dirty_left, 0u);
  // Every byte the application read was served by the servers (caches only
  // hold data fetched in this run) and every written byte reached them.
  EXPECT_GE(r.server_read + r.server_written + 1, 0u);
}

TEST_P(DriverWorkloadMatrix, Deterministic) {
  const auto [w, d] = GetParam();
  const RunResult a = run_matrix(w, d);
  const RunResult b = run_matrix(w, d);
  EXPECT_EQ(a.completion, b.completion);
  EXPECT_EQ(a.app_bytes, b.app_bytes);
  EXPECT_EQ(a.server_read, b.server_read);
  EXPECT_EQ(a.server_written, b.server_written);
}

INSTANTIATE_TEST_SUITE_P(
    AllPairs, DriverWorkloadMatrix,
    ::testing::Combine(::testing::Values(Wl::kDemo, Wl::kMpiIoTest, Wl::kHpio,
                                         Wl::kIor, Wl::kNoncontig, Wl::kS3asim,
                                         Wl::kBtio, Wl::kDependent),
                       ::testing::Values(Drv::kVanilla, Drv::kCollective,
                                         Drv::kDualPar, Drv::kPreexec)),
    [](const ::testing::TestParamInfo<std::tuple<Wl, Drv>>& info) {
      return std::string(wl_name(std::get<0>(info.param))) + "_" +
             drv_name(std::get<1>(info.param));
    });

class SchedulerSweep : public ::testing::TestWithParam<disk::SchedulerKind> {};

TEST_P(SchedulerSweep, EndToEndRunServesAllBytes) {
  harness::TestbedConfig cfg = tiny_config();
  cfg.scheduler = GetParam();
  harness::Testbed tb(cfg);
  Scenario s = make_scenario(tb, Wl::kDemo, 4);
  auto& job = tb.add_job("d", 4, tb.dualpar(), s.factory,
                         dualpar::Policy::kForcedDataDriven);
  tb.run();
  EXPECT_TRUE(job.finished());
  EXPECT_EQ(job.total_bytes(), s.expected_bytes);
}

INSTANTIATE_TEST_SUITE_P(AllSchedulers, SchedulerSweep,
                         ::testing::Values(disk::SchedulerKind::kNoop,
                                           disk::SchedulerKind::kDeadline,
                                           disk::SchedulerKind::kCscan,
                                           disk::SchedulerKind::kCfq),
                         [](const auto& info) {
                           switch (info.param) {
                             case disk::SchedulerKind::kNoop: return "noop";
                             case disk::SchedulerKind::kDeadline: return "deadline";
                             case disk::SchedulerKind::kCscan: return "cscan";
                             case disk::SchedulerKind::kCfq: return "cfq";
                           }
                           return "x";
                         });

class QuotaSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(QuotaSweep, DualParInvariantsHoldAtEveryQuota) {
  harness::TestbedConfig cfg = tiny_config();
  cfg.dualpar.cache_quota = GetParam();
  harness::Testbed tb(cfg);
  Scenario s = make_scenario(tb, Wl::kBtio, 4);
  auto& job = tb.add_job("b", 4, tb.dualpar(), s.factory,
                         dualpar::Policy::kForcedDataDriven);
  tb.run();
  EXPECT_TRUE(job.finished());
  EXPECT_EQ(tb.cache().all_dirty_segments().size(), 0u);
  std::uint64_t app_written = 0;
  for (std::uint32_t i = 0; i < job.nprocs(); ++i)
    app_written += job.process(i).bytes_written();
  std::uint64_t server_written = 0;
  for (std::uint32_t i = 0; i < tb.num_servers(); ++i)
    server_written += tb.server(i).bytes_written();
  EXPECT_GT(app_written, 0u);
  // Every application byte reached the disks (hole filling may add more).
  EXPECT_GE(server_written, app_written);
}

INSTANTIATE_TEST_SUITE_P(Quotas, QuotaSweep,
                         ::testing::Values(16u * 1024, 64u * 1024, 256u * 1024,
                                           1024u * 1024, 8u * 1024 * 1024),
                         [](const auto& info) {
                           return std::to_string(info.param / 1024) + "KB";
                         });

class StripeSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StripeSweep, LayoutAndCacheAgreeAtEveryUnit) {
  harness::TestbedConfig cfg = tiny_config();
  cfg.stripe_unit = GetParam();
  harness::Testbed tb(cfg);
  EXPECT_EQ(tb.cache().params().chunk_bytes, GetParam());  // chunk == unit
  Scenario s = make_scenario(tb, Wl::kDemo, 4);
  auto& job = tb.add_job("d", 4, tb.dualpar(), s.factory,
                         dualpar::Policy::kForcedDataDriven);
  tb.run();
  EXPECT_EQ(job.total_bytes(), s.expected_bytes);
}

INSTANTIATE_TEST_SUITE_P(Units, StripeSweep,
                         ::testing::Values(16u * 1024, 64u * 1024, 256u * 1024),
                         [](const auto& info) {
                           return std::to_string(info.param / 1024) + "KB";
                         });

}  // namespace
}  // namespace dpar
