// ROMIO-style two-phase collective I/O (§III-A, the paper's main comparator).
//
// All ranks synchronize at each collective call. The union of the call's
// accessed extent is partitioned into contiguous *file domains*, one per
// aggregator (one aggregator per compute node, ROMIO's default). Each rank
// ships its request metadata to the aggregators owning parts of its data;
// aggregators perform data sieving within their domain for reads (one
// contiguous request when hole waste is acceptable, exact list I/O
// otherwise) and native list I/O for writes, as ROMIO does on PVFS2; finally
// data is shuffled between aggregators and owner ranks over the network.
// The metadata and shuffle traffic grows with the process count, which is
// why collective I/O loses ground at 256 processes in Fig 4.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "mpi/job.hpp"
#include "mpiio/env.hpp"
#include "mpiio/vanilla.hpp"
#include "sim/pool.hpp"

namespace dpar::mpiio {

/// Max sieved contiguous read.
inline constexpr std::uint64_t kSieveBuffer = 4ull << 20;
/// Sieve only when useful bytes / span >= this fraction.
inline constexpr double kSieveMinDensity = 0.4;
/// Per-rank CPU cost of the exchange bookkeeping, per participating rank
/// (memcpy/pack/unpack of flattened datatypes).
inline constexpr sim::Time kExchangeCpuPerRank = sim::usec(12);

/// One rank's part of a collective round, as the planner sees it.
struct RoundInput {
  net::NodeId node = 0;        ///< compute node hosting the rank
  std::uint64_t context = 0;   ///< the rank's process id (I/O context)
  std::span<const pfs::Segment> segments;
};

/// An aggregator of a planned round and the sieved segments it issues.
struct RoundAgg {
  net::NodeId node = 0;
  std::uint64_t context = 0;  ///< first participant on the node, as I/O context
  std::vector<pfs::Segment> segs;
};

/// Exchange between aggregator `agg` (an index into RoundPlan::aggs) and the
/// participant node `node`: `bytes` of payload and `meta` bytes of flattened
/// (offset, len) descriptors. Only pairs that exchange data have a flow.
struct RoundFlow {
  std::uint32_t agg = 0;
  net::NodeId node = 0;
  std::uint64_t bytes = 0;
  std::uint64_t meta = 0;
};

/// The plan of one round, refilled in place by plan_round so a reused plan
/// keeps the capacity of its vectors.
struct RoundPlan {
  std::vector<RoundAgg> aggs;    ///< sorted by node id
  std::vector<RoundFlow> flows;  ///< in (aggregator index, node id) order

  // Planner scratch: participant nodes sorted by id, each input's column in
  // that list, and the aggregator x participant-node table of flows.
  std::vector<net::NodeId> nodes;
  std::vector<std::uint32_t> cols;
  std::vector<RoundFlow> table;
};

/// Plan a two-phase round over `inputs` (one per participating rank, in
/// arrival order): one aggregator per participant node, the accessed extent
/// split into equal contiguous file domains in node-id order, each
/// aggregator's pieces sorted, merged and (for reads) sieved, and the
/// per-(aggregator, node) exchange volumes. Returns false, with no
/// aggregators and no flows, when the round moves no bytes.
bool plan_round(std::span<const RoundInput> inputs, bool is_write, RoundPlan& plan);

class CollectiveDriver : public VanillaDriver {
 public:
  explicit CollectiveDriver(IoEnv env) : VanillaDriver(env) {}

  void io(mpi::Process& proc, const mpi::IoCall& call,
          sim::UniqueFunction done) override;
  void on_process_end(mpi::Process& proc) override;

  std::string name() const override { return "collective-io"; }

  std::uint64_t collective_rounds() const { return rounds_; }
  std::uint64_t shuffle_bytes() const { return shuffle_bytes_; }

 private:
  struct Entry {
    mpi::Process* proc;
    const mpi::IoCall* call;  ///< valid until `done` runs (IoDriver::io)
    sim::UniqueFunction done;
  };
  /// One round in flight. Pooled: every phase's continuation captures only
  /// the driver and the record, and the vectors keep their capacity.
  struct Round {
    std::vector<Entry> entries;
    std::vector<RoundInput> inputs;
    RoundPlan plan;
    pfs::FileId file = 0;
    bool is_write = false;
    sim::Time cpu = 0;        ///< exchange bookkeeping before the release
    std::size_t pending = 0;  ///< outstanding messages or transfers of a phase
  };

  /// Start a round with the arrived ranks of `epoch` (left empty).
  void run_round(std::vector<Entry>& epoch);
  void issue_agg_io(Round* r);
  void agg_io_done(Round* r);
  /// Release every rank `delay` from now and recycle the record.
  void finish(Round* r, sim::Time delay);

  std::map<std::uint32_t, std::vector<Entry>> epochs_;  ///< by job id
  sim::Pool<Round> rounds_pool_;
  std::uint64_t rounds_ = 0;
  std::uint64_t shuffle_bytes_ = 0;
};

}  // namespace dpar::mpiio
