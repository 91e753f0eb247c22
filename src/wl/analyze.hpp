// Offline workload characterization: run a Program's op stream without any
// simulation and summarize its access pattern — request sizes, read/write
// mix, sequentiality, strides — the §V-A description of each benchmark, as
// a tool.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "mpi/program.hpp"

namespace dpar::wl {

struct AccessPattern {
  std::uint64_t calls = 0;
  std::uint64_t segments = 0;
  std::uint64_t read_bytes = 0;
  std::uint64_t write_bytes = 0;
  std::uint64_t barriers = 0;
  sim::Time compute = 0;
  std::uint64_t min_segment = UINT64_MAX;
  std::uint64_t max_segment = 0;
  /// Segments immediately following the previous segment of the same file.
  std::uint64_t sequential_segments = 0;
  /// Most common gap between consecutive segments of a file (the stride).
  std::uint64_t dominant_stride = 0;

  double mean_segment() const {
    return segments ? static_cast<double>(read_bytes + write_bytes) /
                          static_cast<double>(segments)
                    : 0.0;
  }
  double sequentiality() const {
    return segments > 1 ? static_cast<double>(sequential_segments) /
                              static_cast<double>(segments - 1)
                        : 0.0;
  }
};

/// Drain `prog` as `rank` of `nprocs` (no I/O is performed; reads get
/// synthesized contents so data-dependent programs advance) and accumulate
/// the pattern. `max_ops` bounds runaway programs.
AccessPattern analyze(mpi::Program& prog, std::uint32_t rank, std::uint32_t nprocs,
                      std::uint64_t max_ops = 10'000'000);

/// Multi-line human-readable summary.
std::string describe(const AccessPattern& p);

}  // namespace dpar::wl
