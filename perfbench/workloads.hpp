// The benchmark's workloads, each a plan the runner builds through the
// public harness::Testbed API. Sizes are fixed here; only the seed varies
// the generated inputs (start offsets, join time, crash window).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "harness/testbed.hpp"

namespace perfbench {

enum class DriverKind { kVanilla, kCollective, kDualPar };

struct FilePlan {
  std::string name;
  std::uint64_t size = 0;
};

struct JobPlan {
  std::string name;
  std::uint32_t nprocs = 0;
  DriverKind driver = DriverKind::kVanilla;
  dpar::dualpar::Policy policy = dpar::dualpar::Policy::kForcedNormal;
  dpar::sim::Time start_at = 0;
  /// Builds the per-rank program factory from the ids create_file returned
  /// for the plan's files, in plan order.
  std::function<dpar::mpi::Job::ProgramFactory(const std::vector<dpar::pfs::FileId>&)>
      factory;
};

struct Plan {
  dpar::harness::TestbedConfig cfg;
  std::vector<FilePlan> files;
  std::vector<JobPlan> jobs;
  /// Seeded inputs, for the result header.
  std::string inputs;
};

const std::vector<std::string>& workload_names();

/// The plan for workload `name` under `seed`; `tiny` shrinks the data
/// volume for the self-test. Throws std::invalid_argument on an unknown name.
Plan make_plan(const std::string& name, std::uint64_t seed, bool tiny);

}  // namespace perfbench
