// Durability/recovery reporting: turns a run's replica::DurabilityReport
// into human-readable and machine-diffable forms, the replication-layer
// sibling of fault_report.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "replica/manager.hpp"

namespace dpar::metrics {

/// All replication counters as (name, value) rows in a fixed order — stable
/// across runs so reports diff cleanly. under_replicated_chunk_seconds is
/// scaled to integer milliseconds so the row stays exactly diffable.
std::vector<std::pair<std::string, std::uint64_t>> replica_counter_rows(
    const replica::DurabilityReport& r);

/// Multi-line "  name: value" report (zeros kept: a zero lost_chunks row is
/// the whole point).
std::string format_replica_report(const replica::DurabilityReport& r);

}  // namespace dpar::metrics
