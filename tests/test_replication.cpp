// N-way chunk replication: placement maps, replicated write fan-out,
// degraded reads with transparent failover, background re-replication, and
// the durability ledger. The byte-identity contract extends to replicated
// runs: a (seed, plan, rf, placement) tuple must produce the same output
// alone or on an ExperimentPool thread beside other runs.
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "fault/plan.hpp"
#include "harness/experiment_pool.hpp"
#include "harness/testbed.hpp"
#include "metrics/fault_report.hpp"
#include "metrics/replica_report.hpp"
#include "replica/placement.hpp"
#include "sim/rng.hpp"
#include "wl/workloads.hpp"

namespace dpar {
namespace {

replica::ReplicaMap make_map(std::uint32_t servers, std::uint32_t rf,
                             replica::Placement p,
                             std::uint32_t num_racks = 3) {
  replica::ReplicaConfig cfg;
  cfg.replication_factor = rf;
  cfg.placement = p;
  cfg.num_racks = num_racks;
  cfg.validate(servers);
  std::vector<std::uint32_t> racks(servers);
  for (std::uint32_t s = 0; s < servers; ++s) racks[s] = s % num_racks;
  return replica::ReplicaMap(pfs::StripeLayout{64 * 1024, servers}, cfg,
                             std::move(racks));
}

// ---------------------------------------------------------------------------
// Placement unit tests
// ---------------------------------------------------------------------------

TEST(ReplicationPlacement, RolesLandOnDistinctServersAndRoleZeroIsPrimary) {
  for (const replica::Placement p :
       {replica::Placement::kNodeLocal, replica::Placement::kRotational,
        replica::Placement::kRackAware}) {
    const replica::ReplicaMap map = make_map(9, 3, p);
    for (std::uint64_t stripe = 0; stripe < 200; ++stripe) {
      std::set<std::uint32_t> servers;
      for (std::uint32_t r = 0; r < 3; ++r)
        servers.insert(map.server_of(stripe, r));
      EXPECT_EQ(servers.size(), 3u) << to_string(p) << " stripe " << stripe;
      EXPECT_EQ(map.server_of(stripe, 0), stripe % 9)
          << to_string(p) << " role 0 must match the unreplicated layout";
    }
  }
}

TEST(ReplicationPlacement, RackAwareSpreadsCopiesOverRacks) {
  const replica::ReplicaMap map = make_map(9, 3, replica::Placement::kRackAware);
  for (std::uint64_t stripe = 0; stripe < 200; ++stripe) {
    std::set<std::uint32_t> racks;
    for (std::uint32_t r = 0; r < 3; ++r)
      racks.insert(map.rack_of(map.server_of(stripe, r)));
    // 9 servers over 3 racks: a fresh rack exists for every copy.
    EXPECT_EQ(racks.size(), 3u) << "stripe " << stripe;
  }
  // Degenerate case: more copies than racks still yields distinct servers.
  const replica::ReplicaMap two = make_map(4, 3, replica::Placement::kRackAware,
                                           /*num_racks=*/2);
  for (std::uint64_t stripe = 0; stripe < 40; ++stripe) {
    std::set<std::uint32_t> servers, racks;
    for (std::uint32_t r = 0; r < 3; ++r) {
      servers.insert(two.server_of(stripe, r));
      racks.insert(two.rack_of(two.server_of(stripe, r)));
    }
    EXPECT_EQ(servers.size(), 3u);
    EXPECT_EQ(racks.size(), 2u) << "both racks must hold a copy";
  }
}

TEST(ReplicationPlacement, RotationalSpreadsAReplicaLoadOverTheCluster) {
  // Chained declustering: the replicas of one primary's chunks must not all
  // pile onto a single successor (that is kNodeLocal's behaviour).
  const replica::ReplicaMap map = make_map(9, 2, replica::Placement::kRotational);
  std::set<std::uint32_t> replica_servers;
  for (std::uint64_t stripe = 0; stripe < 9 * 8; stripe += 9)
    replica_servers.insert(map.server_of(stripe, 1));  // primary is server 0
  EXPECT_GT(replica_servers.size(), 1u);
}

TEST(ReplicationPlacement, ReplicaRegionsAreDisjointPerRole) {
  const replica::ReplicaMap map = make_map(4, 3, replica::Placement::kRotational);
  const std::uint64_t size = 10ull << 20;
  const std::uint64_t unit = 64 * 1024;
  // Every copy's local offset must stay inside its role's region and inside
  // the allocated extent; regions of different roles must not interleave.
  std::uint64_t role1_max = 0, role2_min = UINT64_MAX;
  for (std::uint64_t off = 0; off < size; off += unit) {
    const std::uint64_t l0 = map.replica_local_offset(size, off, 0);
    const std::uint64_t l1 = map.replica_local_offset(size, off, 1);
    const std::uint64_t l2 = map.replica_local_offset(size, off, 2);
    EXPECT_LT(l0, l1);
    EXPECT_LT(l1, l2);
    EXPECT_LT(l2, map.extent_bytes(size));
    role1_max = std::max(role1_max, l1 + unit);
    role2_min = std::min(role2_min, l2);
  }
  EXPECT_LE(role1_max, role2_min) << "role regions interleave";
}

TEST(ReplicationConfig, ValidateRejectsMalformedConfigs) {
  replica::ReplicaConfig cfg;
  cfg.replication_factor = 0;
  EXPECT_THROW(cfg.validate(9), std::invalid_argument);
  cfg.replication_factor = 10;
  EXPECT_THROW(cfg.validate(9), std::invalid_argument);
  cfg.replication_factor = 3;
  cfg.num_racks = 0;
  EXPECT_THROW(cfg.validate(9), std::invalid_argument);
  cfg.num_racks = 3;
  cfg.repair_bandwidth = 0;
  EXPECT_THROW(cfg.validate(9), std::invalid_argument);
  cfg.repair_bandwidth = 40e6;
  EXPECT_NO_THROW(cfg.validate(9));
  // The testbed rejects them too, before any simulation state exists.
  harness::TestbedConfig tcfg;
  tcfg.replica.replication_factor = tcfg.data_servers + 1;
  EXPECT_THROW(harness::Testbed{tcfg}, std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Replicated runs: determinism on and off the experiment pool
// ---------------------------------------------------------------------------

/// Same shape as test_fault_pool's random_plan: probabilistic faults, one
/// transient partition, one crash/restart window, all drawn from `seed`.
fault::FaultPlan random_plan(std::uint64_t seed, std::uint32_t servers,
                             std::uint32_t compute_nodes) {
  sim::Rng rng(sim::splitmix64(seed));
  fault::FaultPlan plan;
  plan.seed = seed;
  plan.disk.stall_rate = 0.02 + 0.08 * rng.uniform01();
  plan.disk.stall_time = sim::msec(1) + sim::msec(rng.uniform(4));
  plan.net.drop_rate = 0.002 + 0.006 * rng.uniform01();
  plan.net.delay_rate = 0.01 + 0.04 * rng.uniform01();
  plan.net.delay_time = sim::msec(1) + sim::msec(rng.uniform(4));
  fault::NetFaults::Partition part;
  part.node_a = rng.uniform(servers);
  part.node_b = servers + 1 + rng.uniform(compute_nodes);
  part.start = sim::msec(40 + rng.uniform(40));
  part.end = part.start + sim::msec(30 + rng.uniform(60));
  plan.net.partitions.push_back(part);
  fault::ServerFaults::Crash crash;
  crash.server = rng.uniform(servers);
  crash.at = sim::msec(60 + rng.uniform(60));
  crash.restart_at = crash.at + sim::msec(80 + rng.uniform(80));
  plan.server.crashes.push_back(crash);
  plan.validate();
  return plan;
}

/// Everything a replicated run observably produces, flattened: completion,
/// bytes, events, latency tails, the fault ledger AND the durability report.
std::string rep_signature(std::uint64_t seed, std::uint32_t rf,
                          replica::Placement placement,
                          replica::WriteFanout fanout) {
  harness::TestbedConfig cfg;
  cfg.data_servers = 4;
  cfg.compute_nodes = 3;
  cfg.cores_per_node = 4;
  cfg.keep_traces = false;
  cfg.replica.replication_factor = rf;
  cfg.replica.placement = placement;
  cfg.replica.fanout = fanout;
  cfg.fault = random_plan(seed, cfg.data_servers, cfg.compute_nodes);
  harness::Testbed tb(cfg);
  wl::DemoConfig wr;
  wr.file = tb.create_file("w", 3ull << 20);
  wr.file_size = 3ull << 20;
  wr.segment_size = 64 * 1024;
  wr.is_write = true;
  wl::DemoConfig rd;
  rd.file = tb.create_file("r", 3ull << 20);
  rd.file_size = 3ull << 20;
  rd.segment_size = 64 * 1024;
  mpi::Job& writer = tb.add_job("w", 6, tb.vanilla(),
                                [wr](std::uint32_t) { return wl::make_demo(wr); },
                                dualpar::Policy::kForcedNormal);
  mpi::Job& reader = tb.add_job("r", 6, tb.vanilla(),
                                [rd](std::uint32_t) { return wl::make_demo(rd); },
                                dualpar::Policy::kForcedNormal);
  const std::uint64_t events = tb.run();
  std::string sig;
  sig += "w_completion=" + std::to_string(writer.completion_time());
  sig += " r_completion=" + std::to_string(reader.completion_time());
  sig += " bytes=" + std::to_string(writer.total_bytes() + reader.total_bytes());
  sig += " events=" + std::to_string(events);
  const sim::Histogram lat = reader.read_latency();
  sig += " rd_n=" + std::to_string(lat.count());
  sig += " rd_p99=" + std::to_string(lat.percentile(0.99));
  sig += "\n" + metrics::format_fault_report(tb.fault_injector()->total());
  sig += metrics::format_replica_report(tb.replica_manager()->report());
  return sig;
}

TEST(ReplicationDeterminism, ByteIdenticalThroughExperimentPool) {
  // Each case runs once inline and once as a concurrent task of a 4-thread
  // ExperimentPool: a replicated, faulted run must not depend on which
  // thread runs it or what else runs beside it.
  struct Case {
    std::uint64_t seed;
    std::uint32_t rf;
    replica::Placement placement;
    replica::WriteFanout fanout;
  };
  const Case cases[] = {
      {0xfade, 2, replica::Placement::kRotational, replica::WriteFanout::kStar},
      {0xc0de, 3, replica::Placement::kRackAware, replica::WriteFanout::kStar},
      {0xbeef, 3, replica::Placement::kNodeLocal, replica::WriteFanout::kChain},
  };
  constexpr std::size_t kCases = std::size(cases);
  std::string inline_sigs[kCases];
  for (std::size_t i = 0; i < kCases; ++i)
    inline_sigs[i] =
        rep_signature(cases[i].seed, cases[i].rf, cases[i].placement, cases[i].fanout);
  std::string pooled[kCases];
  bench::ExperimentPool pool(4);
  for (std::size_t i = 0; i < kCases; ++i)
    pool.submit("case " + std::to_string(i), [&pooled, &cases, i] {
      const Case& c = cases[i];
      pooled[i] = rep_signature(c.seed, c.rf, c.placement, c.fanout);
      return bench::ExperimentStats{};
    });
  pool.wait_all();
  for (std::size_t i = 0; i < kCases; ++i)
    EXPECT_EQ(inline_sigs[i], pooled[i])
        << "seed " << std::hex << cases[i].seed << std::dec << " rf " << cases[i].rf;
}

TEST(ReplicationDeterminism, LedgerIsNonTrivialUnderThePlan) {
  // Guard against the determinism sweep passing vacuously: the randomized
  // plans must actually invalidate copies and drive repair traffic.
  const std::string sig = rep_signature(
      0xfade, 2, replica::Placement::kRotational, replica::WriteFanout::kStar);
  EXPECT_NE(sig.find("server_crashes: 1"), std::string::npos) << sig;
  EXPECT_EQ(sig.find("chunks_invalidated: 0\n"), std::string::npos) << sig;
  EXPECT_EQ(sig.find("repair_ops_completed: 0\n"), std::string::npos) << sig;
}

// ---------------------------------------------------------------------------
// Durability properties
// ---------------------------------------------------------------------------

struct DurabilityOut {
  replica::DurabilityReport report;
  fault::Counters fault_counters;
  std::uint64_t reader_bytes = 0;
};

DurabilityOut run_single_crash(std::uint64_t seed, std::uint32_t rf,
                               replica::Placement placement) {
  sim::Rng rng(sim::splitmix64(seed));
  harness::TestbedConfig cfg;
  cfg.data_servers = 4;
  cfg.compute_nodes = 3;
  cfg.cores_per_node = 4;
  cfg.keep_traces = false;
  cfg.replica.replication_factor = rf;
  cfg.replica.placement = placement;
  fault::ServerFaults::Crash crash;
  crash.server = rng.uniform(cfg.data_servers);
  crash.at = sim::msec(20 + rng.uniform(60));
  crash.restart_at = crash.at + sim::msec(100 + rng.uniform(200));
  cfg.fault.server.crashes.push_back(crash);
  harness::Testbed tb(cfg);
  wl::DemoConfig wr;
  wr.file = tb.create_file("w", 2ull << 20);
  wr.file_size = 2ull << 20;
  wr.segment_size = 64 * 1024;
  wr.is_write = true;
  wl::DemoConfig rd;
  rd.file = tb.create_file("r", 2ull << 20);
  rd.file_size = 2ull << 20;
  rd.segment_size = 64 * 1024;
  tb.add_job("w", 6, tb.vanilla(),
             [wr](std::uint32_t) { return wl::make_demo(wr); },
             dualpar::Policy::kForcedNormal);
  mpi::Job& reader = tb.add_job("r", 6, tb.vanilla(),
                                [rd](std::uint32_t) { return wl::make_demo(rd); },
                                dualpar::Policy::kForcedNormal);
  tb.run();
  return DurabilityOut{tb.replica_manager()->report(),
                       tb.fault_injector()->total(), reader.total_bytes()};
}

TEST(ReplicationDurability, SingleRestartingCrashLosesNothingAtRf2Plus) {
  // The tentpole property: with rf >= 2, any single-server crash that
  // restarts leaves zero lost chunks, every read completes, and background
  // re-replication restores full redundancy before the run drains.
  for (const std::uint64_t seed : {1ull, 2ull, 3ull, 4ull}) {
    for (const std::uint32_t rf : {2u, 3u}) {
      const DurabilityOut out = run_single_crash(
          seed, rf, rf == 2 ? replica::Placement::kRotational
                            : replica::Placement::kRackAware);
      SCOPED_TRACE("seed " + std::to_string(seed) + " rf " + std::to_string(rf));
      // The crash dirtied the dead server's copies...
      EXPECT_GT(out.report.counters.chunks_invalidated, 0u);
      // ...repair re-copied every one of them from surviving replicas...
      EXPECT_GT(out.report.counters.repair_ops_completed, 0u);
      EXPECT_GT(out.report.counters.repair_bytes_copied, 0u);
      EXPECT_EQ(out.report.under_replicated_now, 0u);
      EXPECT_EQ(out.report.invalid_copies_now, 0u);
      // ...nothing was lost, and every client op finished.
      EXPECT_EQ(out.report.lost_chunks, 0u);
      EXPECT_EQ(out.report.counters.chunks_unrepairable, 0u);
      EXPECT_EQ(out.fault_counters.client_ops_started,
                out.fault_counters.client_ops_finished);
      EXPECT_EQ(out.reader_bytes, 2ull << 20);
      // Redundancy pressure was real while it lasted.
      EXPECT_GT(out.report.under_replicated_chunk_seconds, 0.0);
    }
  }
}

TEST(ReplicationDurability, DegradedReadsFailOverDuringALongOutage) {
  // An outage longer than the read-failover patience (timeout + backoff +
  // timeout, ~250 ms under the default retry policy): reads whose primary is
  // down must switch to a surviving replica instead of waiting the outage
  // out, and no read may run out of replicas.
  harness::TestbedConfig cfg;
  cfg.data_servers = 4;
  cfg.compute_nodes = 3;
  cfg.cores_per_node = 4;
  cfg.keep_traces = false;
  cfg.replica.replication_factor = 2;
  cfg.fault.server.crashes.push_back(
      {/*server=*/1, sim::msec(20), sim::msec(900)});
  harness::Testbed tb(cfg);
  wl::DemoConfig rd;
  rd.file = tb.create_file("r", 4ull << 20);
  rd.file_size = 4ull << 20;
  rd.segment_size = 64 * 1024;
  mpi::Job& reader = tb.add_job("r", 6, tb.vanilla(),
                                [rd](std::uint32_t) { return wl::make_demo(rd); },
                                dualpar::Policy::kForcedNormal);
  tb.run();
  const replica::DurabilityReport rep = tb.replica_manager()->report();
  EXPECT_GT(rep.counters.degraded_reads, 0u);
  EXPECT_GT(rep.counters.failover_shards, 0u);
  EXPECT_GT(rep.counters.failover_latency_ns, 0u);
  EXPECT_EQ(rep.counters.out_of_replica_reads, 0u);
  EXPECT_EQ(reader.total_bytes(), 4ull << 20);
  EXPECT_EQ(rep.lost_chunks, 0u);
}

TEST(ReplicationDurability, Rf1KeepsThePreReplicationPath) {
  // replication_factor == 1 must not even build the subsystem: no manager,
  // no replica regions, the legacy request path byte-for-byte.
  harness::TestbedConfig cfg;
  cfg.data_servers = 4;
  cfg.compute_nodes = 3;
  cfg.cores_per_node = 4;
  harness::Testbed tb(cfg);
  EXPECT_EQ(tb.replica_manager(), nullptr);
  EXPECT_EQ(tb.fs().replicas(), nullptr);
}

// ---------------------------------------------------------------------------
// Fail-stop crashes (kNeverRestarts)
// ---------------------------------------------------------------------------

TEST(ReplicationDurability, FailStopCrashBlocksRepairButLosesNoChunkAtRf2) {
  // A server that never restarts: its own copies cannot be rebuilt (fixed
  // placement cannot re-home them), but every chunk still has a valid copy
  // elsewhere at rf >= 2, so nothing is lost and reads keep completing
  // through failover.
  harness::TestbedConfig cfg;
  cfg.data_servers = 4;
  cfg.compute_nodes = 3;
  cfg.cores_per_node = 4;
  cfg.keep_traces = false;
  cfg.replica.replication_factor = 2;
  cfg.fault.server.crashes.push_back(
      {/*server=*/2, sim::msec(20), fault::kNeverRestarts});
  harness::Testbed tb(cfg);
  wl::DemoConfig rd;
  rd.file = tb.create_file("r", 2ull << 20);
  rd.file_size = 2ull << 20;
  rd.segment_size = 64 * 1024;
  mpi::Job& reader = tb.add_job("r", 6, tb.vanilla(),
                                [rd](std::uint32_t) { return wl::make_demo(rd); },
                                dualpar::Policy::kForcedNormal);
  tb.run();
  const replica::DurabilityReport rep = tb.replica_manager()->report();
  EXPECT_EQ(reader.total_bytes(), 2ull << 20);
  EXPECT_EQ(rep.lost_chunks, 0u);
  EXPECT_GT(rep.counters.repair_blocked_permanent, 0u);
  EXPECT_GT(rep.under_replicated_now, 0u)
      << "a fail-stop server's copies stay unrebuilt under fixed placement";
  EXPECT_GT(rep.counters.degraded_reads, 0u);
}

// ---------------------------------------------------------------------------
// Incremental copy tracking vs the full-scan reference
// ---------------------------------------------------------------------------

/// Drive one tracker through a random sequence of server crashes and
/// restarts, invalidation notes, direct ticks and engine events (repair
/// traffic, completions, watchdog timeouts, the re-armed tick chain). After
/// every step and every event, the running count `under_replicated_now()`
/// must equal the full-scan recount in `report()`. Returns the ledger so the
/// caller can check the sequence exercised repair.
replica::Counters drive_tracker(std::uint32_t rf, replica::Placement placement,
                                std::uint64_t seed) {
  harness::TestbedConfig cfg;
  cfg.data_servers = 5;
  cfg.compute_nodes = 2;
  cfg.cores_per_node = 2;
  cfg.keep_traces = false;
  cfg.replica.replication_factor = rf;
  cfg.replica.placement = placement;
  cfg.replica.repair_batch_chunks = 3;
  // The plan only arms the injector: Testbed::run is never called, so none of
  // these crashes fires. Their restart entries keep servers 0-3 recoverable;
  // server 4 has none, so while it is down its deficits block for good.
  for (std::uint32_t s = 0; s + 1 < cfg.data_servers; ++s)
    cfg.fault.server.crashes.push_back({s, sim::secs(1000), sim::secs(1001)});
  harness::Testbed tb(cfg);
  replica::RepairManager& rm = *tb.replica_manager();
  sim::Rng rng(sim::splitmix64(seed));
  const std::uint64_t unit = cfg.stripe_unit;
  struct File {
    pfs::FileId id;
    std::uint64_t chunks;
  };
  std::vector<File> files;
  auto create = [&](std::uint64_t bytes) {
    files.push_back({tb.create_file("f" + std::to_string(files.size()), bytes),
                     (bytes + unit - 1) / unit});
  };
  create(20 * unit + 100);
  create(7 * unit);

  std::string where;
  auto check = [&] {
    EXPECT_EQ(rm.under_replicated_now(), rm.report().under_replicated_now)
        << where << " at t=" << tb.engine().now();
  };
  auto run_events = [&](std::uint64_t n) {
    for (std::uint64_t i = 0;
         i < n && !testing::Test::HasFailure() && tb.engine().run(1) == 1; ++i)
      check();
  };
  check();
  for (int step = 0; step < 250 && !testing::Test::HasFailure(); ++step) {
    const auto server = static_cast<std::uint32_t>(rng.uniform(cfg.data_servers));
    switch (rng.uniform(7)) {
      case 0:
        where = "crash " + std::to_string(server);
        tb.server(server).crash();
        break;
      case 1:
      case 2:
        where = "restart " + std::to_string(server);
        tb.server(server).restart();
        break;
      case 3: {
        const File& f = files[rng.uniform(files.size())];
        std::vector<std::uint64_t> chunks;
        for (std::uint64_t n = 1 + rng.uniform(4); n > 0; --n)
          chunks.push_back(rng.uniform(f.chunks));
        where = "invalidation note";
        rm.post_invalid_copies(f.id, static_cast<std::uint32_t>(rng.uniform(rf)),
                               std::move(chunks));
        break;
      }
      case 4:
        where = "tick";
        rm.tick();
        break;
      case 5:
        where = "events";
        run_events(rng.uniform(300));
        break;
      default:
        // Registration with servers possibly down: the only path that seeds
        // live counts below rf.
        where = "create";
        if (files.size() < 4) create((3 + rng.uniform(9)) * unit + rng.uniform(unit));
        break;
    }
    check();
  }
  // Bring every server back and let repair run dry.
  for (std::uint32_t s = 0; s < cfg.data_servers; ++s) tb.server(s).restart();
  where = "drain";
  rm.tick();
  run_events(1'000'000);
  check();
  return rm.total();
}

TEST(ReplicationTracker, IncrementalCountMatchesFullScan) {
  std::uint64_t invalidated = 0, completed = 0, failed = 0, blocked = 0;
  for (const replica::Placement p :
       {replica::Placement::kNodeLocal, replica::Placement::kRotational,
        replica::Placement::kRackAware})
    for (const std::uint32_t rf : {2u, 3u})
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        SCOPED_TRACE(std::string(to_string(p)) + " rf=" + std::to_string(rf) +
                     " seed=" + std::to_string(seed));
        const replica::Counters c = drive_tracker(rf, p, seed);
        if (HasFailure()) return;
        invalidated += c.chunks_invalidated;
        completed += c.repair_ops_completed;
        failed += c.repair_ops_failed;
        blocked += c.repair_blocked_permanent;
      }
  // The sequences reached every state change the running count follows.
  EXPECT_GT(invalidated, 0u);
  EXPECT_GT(completed, 0u);
  EXPECT_GT(failed, 0u);
  EXPECT_GT(blocked, 0u);
}

#if DPAR_CHECK_INVARIANTS
TEST(ReplicationDeath, OutOfReplicaRoleTripsAssert) {
  // The failover sequence must stop at rf-1: asking the map for a role past
  // the last replica is the bug the invariant layer exists to catch.
  const replica::ReplicaMap map = make_map(4, 2, replica::Placement::kRotational);
  EXPECT_DEATH(map.server_of(0, 2), "replica role out of range");
}
#endif

}  // namespace
}  // namespace dpar
