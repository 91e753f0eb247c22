// ROMIO-style two-phase collective I/O (§III-A, the paper's main comparator).
//
// All ranks synchronize at each collective call. The union of the call's
// accessed extent is partitioned into contiguous *file domains*, one per
// aggregator (one aggregator per compute node, ROMIO's default). Each rank
// ships its request metadata to the aggregators owning parts of its data;
// aggregators perform data sieving within their domain (one contiguous
// request when hole waste is acceptable, exact list I/O otherwise); finally
// data is shuffled between aggregators and owner ranks over the network.
// The metadata and shuffle traffic grows with the process count, which is
// why collective I/O loses ground at 256 processes in Fig 4.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "mpi/job.hpp"
#include "mpiio/env.hpp"
#include "mpiio/vanilla.hpp"

namespace dpar::mpiio {

struct CollectiveParams {
  std::uint64_t sieve_buffer = 4ull << 20;  ///< max sieved contiguous read
  /// Sieve only when useful bytes / span >= this fraction.
  double sieve_min_density = 0.4;
  /// Per-rank CPU cost of the exchange bookkeeping, per participating rank
  /// (memcpy/pack/unpack of flattened datatypes).
  sim::Time exchange_cpu_per_rank = sim::usec(12);
  /// ROMIO's cb_nodes hint: cap on the number of aggregators (0 = one per
  /// participating compute node, the default).
  std::uint32_t max_aggregators = 0;
  /// Read-modify-write sieving for noncontiguous collective writes (ROMIO's
  /// generic path with file locking). Off by default: on PVFS2 ROMIO uses
  /// native list I/O for writes instead.
  bool write_sieving = false;
};

class CollectiveDriver : public VanillaDriver {
 public:
  CollectiveDriver(IoEnv env, CollectiveParams params = {})
      : VanillaDriver(env), params_(params) {}

  void io(mpi::Process& proc, const mpi::IoCall& call,
          sim::UniqueFunction done) override;
  void on_process_end(mpi::Process& proc) override;

  std::string name() const override { return "collective-io"; }

  std::uint64_t collective_rounds() const { return rounds_; }
  std::uint64_t shuffle_bytes() const { return shuffle_bytes_; }

 private:
  struct Entry {
    mpi::Process* proc;
    mpi::IoCall call;
    sim::UniqueFunction done;
  };
  struct Epoch {
    std::vector<Entry> entries;
  };

  void run_round(std::uint32_t job_id);

  CollectiveParams params_;
  std::map<std::uint32_t, Epoch> epochs_;
  std::uint64_t rounds_ = 0;
  std::uint64_t shuffle_bytes_ = 0;
};

}  // namespace dpar::mpiio
