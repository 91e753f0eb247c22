// Fault-ledger reporting: turns a run's fault::Counters into human-readable
// and machine-readable forms for benches and the experiment harness.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "fault/injector.hpp"

namespace dpar::metrics {

/// All counters as (name, value) rows, in a fixed layer-grouped order —
/// stable across runs so reports diff cleanly.
std::vector<std::pair<std::string, std::uint64_t>> fault_counter_rows(
    const fault::Counters& c);

/// Multi-line "  name: value" report; lines with zero values are kept (a zero
/// is information when faults were expected).
std::string format_fault_report(const fault::Counters& c);

}  // namespace dpar::metrics
