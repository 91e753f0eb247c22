// Tests for the extension features: per-server disk heterogeneity, cache
// capacity/LRU eviction, and CSV export.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "disk/device.hpp"
#include "harness/testbed.hpp"
#include "metrics/csv.hpp"
#include "wl/workloads.hpp"

namespace dpar {
namespace {

using sim::Engine;

TEST(HeterogeneousServers, DegradedServerSlowsItsRequests) {
  auto run = [](bool degrade) {
    harness::TestbedConfig cfg;
    cfg.data_servers = 3;
    cfg.compute_nodes = 2;
    if (degrade) {
      disk::DiskParams slow = cfg.disk;
      slow.sustained_mb_s /= 8;
      cfg.per_server_disk.assign(3, cfg.disk);
      cfg.per_server_disk[1] = slow;
    }
    harness::Testbed tb(cfg);
    wl::DemoConfig dc;
    dc.file = tb.create_file("f", 8 << 20);
    dc.file_size = 8 << 20;
    dc.segment_size = 64 * 1024;
    auto& job = tb.add_job("j", 2, tb.vanilla(),
                           [dc](std::uint32_t) { return wl::make_demo(dc); },
                           dualpar::Policy::kForcedNormal);
    tb.run();
    return job.completion_time();
  };
  EXPECT_GT(run(true), run(false));
}

TEST(CacheCapacity, LruEvictionKeepsNodeUnderLimit) {
  Engine eng;
  net::Network net(eng, 2);
  cache::CacheParams p;
  p.chunk_bytes = 64 * 1024;
  p.capacity_per_node = 256 * 1024;  // 4 chunks per node
  cache::GlobalCache cache(eng, net, {0}, p);
  for (std::uint64_t i = 0; i < 8; ++i) {
    cache.insert(1, pfs::Segment{i * 64 * 1024, 64 * 1024}, 5, false);
    eng.run_until(sim::msec(static_cast<std::int64_t>(i + 1)));
  }
  EXPECT_LE(cache.node_bytes(0), 256u * 1024);
  EXPECT_GE(cache.capacity_evictions(), 4u);
  // The oldest chunks are gone, the newest survive.
  EXPECT_FALSE(cache.covers(1, pfs::Segment{0, 1}));
  EXPECT_TRUE(cache.covers(1, pfs::Segment{7 * 64 * 1024, 1}));
}

TEST(CacheCapacity, DirtyChunksAreNeverEvicted) {
  Engine eng;
  net::Network net(eng, 2);
  cache::CacheParams p;
  p.chunk_bytes = 64 * 1024;
  p.capacity_per_node = 128 * 1024;
  cache::GlobalCache cache(eng, net, {0}, p);
  for (std::uint64_t i = 0; i < 6; ++i) {
    cache.write(1, pfs::Segment{i * 64 * 1024, 64 * 1024}, 5);
    eng.run_until(sim::msec(static_cast<std::int64_t>(i + 1)));
  }
  // Over capacity but everything is dirty: nothing may be dropped.
  EXPECT_EQ(cache.dirty_segments(1).size(), 1u);
  EXPECT_EQ(cache.total_valid_bytes(), 6u * 64 * 1024);
}

TEST(CacheEviction, IdleChunksExpireDuringLongRuns) {
  // Two widely separated jobs: the first job's chunks must be gone (idle
  // eviction tick) by the time the run ends, not accumulated forever.
  harness::TestbedConfig cfg;
  cfg.data_servers = 2;
  cfg.compute_nodes = 2;
  cfg.cache.idle_eviction = sim::secs(2);
  harness::Testbed tb(cfg);
  wl::DemoConfig d1;
  d1.file = tb.create_file("a", 4 << 20);
  d1.file_size = 4 << 20;
  d1.segment_size = 64 * 1024;
  tb.add_job("early", 2, tb.dualpar(), [d1](std::uint32_t) { return wl::make_demo(d1); },
             dualpar::Policy::kForcedDataDriven);
  // A late compute-only job keeps the clock running past the eviction TTL.
  wl::DemoConfig d2;
  d2.file = tb.create_file("b", 1 << 20);
  d2.file_size = 64 * 1024;
  d2.segment_size = 64 * 1024;
  d2.compute_per_call = sim::secs(1);
  tb.add_job("late", 1, tb.vanilla(), [d2](std::uint32_t) { return wl::make_demo(d2); },
             dualpar::Policy::kForcedNormal, sim::secs(5));
  tb.run();
  EXPECT_EQ(tb.cache().total_valid_bytes(), 0u);
}

TEST(CsvExport, SeriesRoundTrips) {
  sim::TimeSeries series;
  series.add(sim::secs(1), 10.5);
  series.add(sim::secs(2), 20.25);
  const std::string path = ::testing::TempDir() + "/series.csv";
  ASSERT_TRUE(metrics::write_series_csv(path, series, "mbps"));
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();
  EXPECT_NE(text.find("time_s,mbps"), std::string::npos);
  EXPECT_NE(text.find("1.000000,10.500000"), std::string::npos);
  EXPECT_NE(text.find("2.000000,20.250000"), std::string::npos);
}

TEST(CsvExport, TraceRoundTrips) {
  std::vector<disk::TraceEvent> events;
  disk::TraceEvent ev;
  ev.time = sim::msec(1500);
  ev.lba = 4096;
  ev.sectors = 32;
  ev.is_write = true;
  ev.context = 7;
  ev.seek_distance = 123;
  events.push_back(ev);
  const std::string path = ::testing::TempDir() + "/trace.csv";
  ASSERT_TRUE(metrics::write_trace_csv(path, events));
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  EXPECT_NE(ss.str().find("1.500000,4096,32,W,7,123"), std::string::npos);
}

TEST(CsvExport, FailsOnUnwritablePath) {
  sim::TimeSeries s;
  EXPECT_FALSE(metrics::write_series_csv("/nonexistent-dir/x.csv", s));
}

}  // namespace
}  // namespace dpar
