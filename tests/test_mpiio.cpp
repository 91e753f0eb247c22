// Tests for the MPI-IO drivers: vanilla request flow and two-phase
// collective I/O (synchronization, aggregation, sieving, shuffle).
#include <gtest/gtest.h>

#include <memory>

#include "disk/device.hpp"
#include "harness/testbed.hpp"
#include "wl/workloads.hpp"

namespace dpar::mpiio {
namespace {

harness::TestbedConfig small_config() {
  harness::TestbedConfig cfg;
  cfg.data_servers = 3;
  cfg.compute_nodes = 2;
  cfg.cores_per_node = 8;
  return cfg;
}

TEST(Vanilla, ObserverSeesEveryCall) {
  harness::Testbed tb(small_config());
  const pfs::FileId f = tb.create_file("a", 8 << 20);
  wl::DemoConfig dc;
  dc.file = f;
  dc.file_size = 1 << 20;
  dc.segment_size = 16 * 1024;
  tb.add_job("v", 2, tb.vanilla(), [&](std::uint32_t) { return wl::make_demo(dc); },
             dualpar::Policy::kForcedNormal);
  tb.run();
  // EMC collected request observations: the last evaluation has a ReqDist.
  tb.emc().tick();
  // (No assertion on the value; the hook path is what matters.)
  SUCCEED();
}

TEST(Vanilla, KeepTracesOffReachesEveryRaidMember) {
  harness::TestbedConfig cfg = small_config();
  cfg.raid0 = true;
  cfg.keep_traces = false;
  harness::Testbed tb(cfg);
  wl::DemoConfig dc;
  dc.file_size = 4 << 20;
  dc.file = tb.create_file("a", dc.file_size);
  dc.segment_size = 256 * 1024;  // spans both members' chunks
  tb.add_job("v", 2, tb.vanilla(), [&](std::uint32_t) { return wl::make_demo(dc); },
             dualpar::Policy::kForcedNormal);
  tb.run();
  for (std::uint32_t s = 0; s < tb.num_servers(); ++s) {
    auto* raid = dynamic_cast<disk::Raid0Device*>(&tb.server(s).device());
    ASSERT_NE(raid, nullptr);
    for (int m = 0; m < 2; ++m) {
      EXPECT_GT(raid->member(m).trace().dispatches(), 0u)
          << "server " << s << " member " << m;
      EXPECT_TRUE(raid->member(m).trace().events().empty())
          << "server " << s << " member " << m;
    }
  }
}

TEST(Collective, NoncollectiveCallsPassThrough) {
  harness::Testbed tb(small_config());
  const pfs::FileId f = tb.create_file("a", 8 << 20);
  wl::DemoConfig dc;
  dc.file = f;
  dc.file_size = 1 << 20;
  dc.segment_size = 16 * 1024;
  auto& job = tb.add_job("c", 2, tb.collective(), [&](std::uint32_t) {
    return wl::make_demo(dc);  // demo never sets collective
  }, dualpar::Policy::kForcedNormal);
  tb.run();
  EXPECT_TRUE(job.finished());
  EXPECT_EQ(tb.collective().collective_rounds(), 0u);
}

TEST(Collective, RoundCompletesOnlyWhenAllRanksArrive) {
  harness::Testbed tb(small_config());
  const pfs::FileId f = tb.create_file("a", 64 << 20);
  wl::NoncontigConfig nc;
  nc.file = f;
  nc.columns = 4;
  nc.elmt_count = 256;
  nc.rows = 256;
  nc.collective = true;
  auto& job = tb.add_job("c", 4, tb.collective(), [&](std::uint32_t) {
    return wl::make_noncontig(nc);
  }, dualpar::Policy::kForcedNormal);
  tb.run();
  EXPECT_TRUE(job.finished());
  EXPECT_GT(tb.collective().collective_rounds(), 0u);
  // All application bytes arrived.
  EXPECT_EQ(job.total_bytes(), 4u * 256 * 256 * 4);
}

TEST(Collective, AggregationMergesServerRequests) {
  // Interleaved column reads: collective I/O should produce far fewer disk
  // requests than vanilla for the same bytes.
  auto disk_requests = [&](bool collective) {
    harness::Testbed tb(small_config());
    wl::NoncontigConfig nc;
    nc.columns = 4;
    nc.elmt_count = 64;  // 256-byte elements -> very fragmented vanilla I/O
    nc.rows = 512;
    nc.collective = collective;
    const std::uint64_t fsize = nc.columns * nc.elmt_count * 4 * nc.rows;
    nc.file = tb.create_file("a", fsize);
    tb.add_job("c", 4,
               collective ? static_cast<mpi::IoDriver&>(tb.collective())
                          : static_cast<mpi::IoDriver&>(tb.vanilla()),
               [&](std::uint32_t) { return wl::make_noncontig(nc); },
               dualpar::Policy::kForcedNormal);
    tb.run();
    std::uint64_t n = 0;
    for (std::uint32_t s = 0; s < tb.num_servers(); ++s)
      n += tb.server(s).trace().dispatches();
    return n;
  };
  EXPECT_LT(disk_requests(true) * 4, disk_requests(false));
}

TEST(Collective, ShuffleTrafficGrowsWithData) {
  harness::Testbed tb(small_config());
  wl::NoncontigConfig nc;
  nc.columns = 4;
  nc.elmt_count = 256;
  nc.rows = 256;
  nc.collective = true;
  const std::uint64_t fsize = nc.columns * nc.elmt_count * 4 * nc.rows;
  nc.file = tb.create_file("a", fsize);
  auto& job = tb.add_job("c", 4, tb.collective(), [&](std::uint32_t) {
    return wl::make_noncontig(nc);
  }, dualpar::Policy::kForcedNormal);
  tb.run();
  EXPECT_TRUE(job.finished());
  // Aggregators scattered (roughly) every byte that crossed node boundaries.
  EXPECT_GT(tb.collective().shuffle_bytes(), fsize / 4);
}

TEST(Collective, WritePathDeliversAllBytes) {
  harness::Testbed tb(small_config());
  wl::NoncontigConfig nc;
  nc.columns = 4;
  nc.elmt_count = 256;
  nc.rows = 256;
  nc.collective = true;
  nc.is_write = true;
  const std::uint64_t fsize = nc.columns * nc.elmt_count * 4 * nc.rows;
  nc.file = tb.create_file("a", fsize);
  auto& job = tb.add_job("w", 4, tb.collective(), [&](std::uint32_t) {
    return wl::make_noncontig(nc);
  }, dualpar::Policy::kForcedNormal);
  tb.run();
  EXPECT_TRUE(job.finished());
  std::uint64_t written = 0;
  for (std::uint32_t s = 0; s < tb.num_servers(); ++s)
    written += tb.server(s).bytes_written();
  EXPECT_EQ(written, fsize);
}

TEST(Collective, WriteSievingDoesReadModifyWrite) {
  auto server_reads = [&](bool rmw) {
    harness::TestbedConfig cfg = small_config();
    cfg.collective.write_sieving = rmw;
    harness::Testbed tb(cfg);
    wl::NoncontigConfig nc;
    nc.columns = 4;
    nc.elmt_count = 256;
    nc.rows = 128;
    nc.collective = true;
    nc.is_write = true;
    const std::uint64_t fsize = nc.columns * nc.elmt_count * 4 * nc.rows;
    nc.file = tb.create_file("a", fsize);
    auto& job = tb.add_job("w", 2, tb.collective(), [&](std::uint32_t) {
      return wl::make_noncontig(nc);  // 2 of 4 columns -> holes in the span
    }, dualpar::Policy::kForcedNormal);
    tb.run();
    EXPECT_TRUE(job.finished());
    std::uint64_t reads = 0;
    for (std::uint32_t s = 0; s < tb.num_servers(); ++s)
      reads += tb.server(s).bytes_read();
    return reads;
  };
  EXPECT_EQ(server_reads(false), 0u);  // native list I/O: pure writes
  EXPECT_GT(server_reads(true), 0u);   // RMW path read the spans first
}

TEST(Collective, DataSievingReadsContiguousSpan) {
  // Dense interleaved reads within a small span: aggregators should sieve
  // (single span read), so servers see slightly MORE bytes than requested.
  harness::Testbed tb(small_config());
  wl::NoncontigConfig nc;
  nc.columns = 4;
  nc.elmt_count = 64;
  nc.rows = 128;
  nc.collective = true;
  const std::uint64_t fsize = nc.columns * nc.elmt_count * 4 * nc.rows;
  nc.file = tb.create_file("a", fsize);
  auto& job = tb.add_job("s", 2, tb.collective(), [&](std::uint32_t) {
    return wl::make_noncontig(nc);  // 2 ranks read columns 0,1 of 4 -> holes
  }, dualpar::Policy::kForcedNormal);
  tb.run();
  std::uint64_t served = 0;
  for (std::uint32_t s = 0; s < tb.num_servers(); ++s)
    served += tb.server(s).bytes_read();
  EXPECT_GT(served, job.total_bytes());  // holes were read along (sieving)
}

}  // namespace
}  // namespace dpar::mpiio
