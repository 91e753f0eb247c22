// Tests for the MPI-IO drivers: vanilla request flow and two-phase
// collective I/O (synchronization, aggregation, sieving, shuffle, and the
// round planner against a map-based reference).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <tuple>
#include <utility>
#include <vector>

#include "disk/device.hpp"
#include "harness/testbed.hpp"
#include "mpiio/collective.hpp"
#include "sim/rng.hpp"
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

/// Replays a fixed op list, then ends.
class ScriptProgram final : public mpi::Program {
 public:
  explicit ScriptProgram(std::vector<mpi::Op> ops) : ops_(std::move(ops)) {}
  mpi::Op next(mpi::ProgramContext&) override {
    if (pos_ >= ops_.size()) return mpi::OpEnd{};
    return ops_[pos_++];
  }
  std::unique_ptr<mpi::Program> clone() const override {
    auto p = std::make_unique<ScriptProgram>(ops_);
    p->pos_ = pos_;
    return p;
  }

 private:
  std::vector<mpi::Op> ops_;
  std::size_t pos_ = 0;
};

TEST(Collective, RoundClosesWhenARankEndsEarly) {
  // Ranks 0-2 make three collective reads; rank 3 makes two, computes past
  // the others' arrival at the third, then ends. Only on_process_end can
  // close that last round.
  constexpr std::uint64_t kLen = 4096;
  constexpr std::uint32_t kCalls = 3;
  harness::Testbed tb(small_config());
  const pfs::FileId f = tb.create_file("a", 1 << 20);
  auto& job = tb.add_job("c", 4, tb.collective(), [&](std::uint32_t rank) {
    const std::uint32_t calls = rank == 3 ? kCalls - 1 : kCalls;
    std::vector<mpi::Op> ops;
    for (std::uint32_t c = 0; c < calls; ++c) {
      mpi::IoCall call;
      call.file = f;
      call.segments = {pfs::Segment{(c * 4 + rank) * kLen, kLen}};
      call.collective = true;
      ops.push_back(mpi::OpIo{std::move(call)});
    }
    if (rank == 3) ops.push_back(mpi::OpCompute{sim::secs(1)});
    return std::make_unique<ScriptProgram>(std::move(ops));
  }, dualpar::Policy::kForcedNormal);
  tb.run(/*max_events=*/1'000'000);  // a round left open never ends the run
  EXPECT_TRUE(job.finished());
  EXPECT_EQ(tb.collective().collective_rounds(), kCalls);
  // A read round scatters every byte it read, local pieces included.
  EXPECT_EQ(tb.collective().shuffle_bytes(), (kCalls * 4 - 1) * kLen);
  EXPECT_EQ(job.total_bytes(), (kCalls * 4 - 1) * kLen);
}

// ---- plan_round against the map-based planner it replaced ----

std::vector<pfs::Segment> reference_sort_and_merge(std::vector<pfs::Segment> segs) {
  std::sort(segs.begin(), segs.end(), [](const pfs::Segment& a, const pfs::Segment& b) {
    return a.offset < b.offset;
  });
  std::vector<pfs::Segment> out;
  for (const auto& s : segs) {
    if (s.length == 0) continue;
    if (!out.empty() && out.back().end() >= s.offset) {
      out.back().length = std::max(out.back().end(), s.end()) - out.back().offset;
    } else {
      out.push_back(s);
    }
  }
  return out;
}

/// The planner as it was written with two std::maps keyed by (aggregator,
/// participant node): aggregators in first-arrival order, then sorted by
/// node; flows in map order. Adds the number of read spans it sieved to
/// `sieved`.
bool reference_plan(const std::vector<RoundInput>& inputs, bool is_write,
                    std::vector<RoundAgg>& aggs, std::vector<RoundFlow>& flows,
                    int& sieved) {
  aggs.clear();
  flows.clear();
  std::uint64_t lo = UINT64_MAX, hi = 0, useful = 0;
  for (const auto& in : inputs) {
    for (const auto& s : in.segments) {
      if (s.length == 0) continue;
      lo = std::min(lo, s.offset);
      hi = std::max(hi, s.end());
      useful += s.length;
    }
  }
  if (useful == 0) return false;
  std::vector<net::NodeId> nodes;
  for (const auto& in : inputs) {
    if (std::find(nodes.begin(), nodes.end(), in.node) == nodes.end()) {
      nodes.push_back(in.node);
      aggs.push_back(RoundAgg{in.node, in.context, {}});
    }
  }
  std::sort(aggs.begin(), aggs.end(),
            [](const RoundAgg& a, const RoundAgg& b) { return a.node < b.node; });
  const std::uint64_t nagg = aggs.size();
  const std::uint64_t domain = (hi - lo + nagg - 1) / nagg;
  std::map<std::pair<std::uint64_t, net::NodeId>, std::uint64_t> shuffle_map;
  std::map<std::pair<std::uint64_t, net::NodeId>, std::uint64_t> meta_map;
  for (const auto& in : inputs) {
    for (const auto& s : in.segments) {
      std::uint64_t off = s.offset, rem = s.length;
      while (rem > 0) {
        const std::uint64_t a = std::min((off - lo) / domain, nagg - 1);
        const std::uint64_t take = std::min(rem, lo + (a + 1) * domain - off);
        aggs[a].segs.push_back(pfs::Segment{off, take});
        shuffle_map[{a, in.node}] += take;
        meta_map[{a, in.node}] += 16;
        off += take;
        rem -= take;
      }
    }
  }
  for (auto& a : aggs) {
    a.segs = reference_sort_and_merge(std::move(a.segs));
    if (a.segs.size() <= 1) continue;
    const std::uint64_t span = a.segs.back().end() - a.segs.front().offset;
    std::uint64_t use = 0;
    for (const auto& s : a.segs) use += s.length;
    const bool dense = span <= kSieveBuffer &&
                       static_cast<double>(use) / static_cast<double>(span) >=
                           kSieveMinDensity;
    if (dense && !is_write) {
      a.segs = {pfs::Segment{a.segs.front().offset, span}};
      ++sieved;
    }
  }
  for (const auto& [key, meta] : meta_map)
    flows.push_back(RoundFlow{static_cast<std::uint32_t>(key.first), key.second,
                              shuffle_map[key], meta});
  return true;
}

TEST(CollectivePlan, MatchesMapBasedReference) {
  sim::Rng rng(2012);
  RoundPlan plan;  // reused across cases, as the driver's pooled rounds do
  std::vector<RoundAgg> ref_aggs;
  std::vector<RoundFlow> ref_flows;
  int planned = 0, sieved = 0;
  for (int iter = 0; iter < 3000; ++iter) {
    const bool is_write = rng.uniform(2) == 1;
    // A few non-contiguous node ids, ranks placed on them at random.
    std::vector<net::NodeId> node_ids(1 + rng.uniform(5));
    for (auto& n : node_ids) n = static_cast<net::NodeId>(rng.uniform(24));
    const std::uint64_t spread = rng.uniform(2) == 1 ? (256u << 10) : (64u << 20);
    const std::size_t nranks = 1 + rng.uniform(12);
    std::vector<std::vector<pfs::Segment>> segs(nranks);
    std::vector<RoundInput> inputs;
    for (std::size_t r = 0; r < nranks; ++r) {
      const std::size_t nseg = rng.uniform(7);
      for (std::size_t k = 0; k < nseg; ++k) {
        const std::uint64_t len = rng.uniform(5) == 0 ? 0 : 1 + rng.uniform(16 << 10);
        segs[r].push_back(pfs::Segment{rng.uniform(spread), len});
      }
    }
    for (std::size_t r = 0; r < nranks; ++r)
      inputs.push_back(RoundInput{node_ids[rng.uniform(node_ids.size())],
                                  1000 + r, segs[r]});

    const bool got = plan_round(inputs, is_write, plan);
    const bool want = reference_plan(inputs, is_write, ref_aggs, ref_flows, sieved);
    ASSERT_EQ(got, want) << "case " << iter;
    if (got) ++planned;
    ASSERT_EQ(plan.aggs.size(), ref_aggs.size()) << "case " << iter;
    for (std::size_t a = 0; a < ref_aggs.size(); ++a) {
      EXPECT_EQ(plan.aggs[a].node, ref_aggs[a].node) << "case " << iter;
      EXPECT_EQ(plan.aggs[a].context, ref_aggs[a].context) << "case " << iter;
      EXPECT_EQ(plan.aggs[a].segs, ref_aggs[a].segs) << "case " << iter;
    }
    ASSERT_EQ(plan.flows.size(), ref_flows.size()) << "case " << iter;
    for (std::size_t i = 0; i < ref_flows.size(); ++i) {
      const RoundFlow& g = plan.flows[i];
      const RoundFlow& w = ref_flows[i];
      EXPECT_EQ(std::tie(g.agg, g.node, g.bytes, g.meta),
                std::tie(w.agg, w.node, w.bytes, w.meta))
          << "case " << iter << " flow " << i;
    }
    if (HasFailure()) return;
  }
  EXPECT_GT(planned, 2000);
  EXPECT_GT(sieved, 0);  // dense-span read sieving was exercised
}

}  // namespace
}  // namespace dpar::mpiio
