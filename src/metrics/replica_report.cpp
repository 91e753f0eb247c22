#include "metrics/replica_report.hpp"

#include <cmath>
#include <sstream>

namespace dpar::metrics {

std::vector<std::pair<std::string, std::uint64_t>> replica_counter_rows(
    const replica::DurabilityReport& r) {
  const replica::Counters& c = r.counters;
  return {
      {"writes_replicated", c.writes_replicated},
      {"write_copy_shards", c.write_copy_shards},
      {"chain_forwards", c.chain_forwards},
      {"copy_write_failures", c.copy_write_failures},
      {"degraded_reads", c.degraded_reads},
      {"failover_shards", c.failover_shards},
      {"failover_latency_ns", c.failover_latency_ns},
      {"out_of_replica_reads", c.out_of_replica_reads},
      {"chunks_invalidated", c.chunks_invalidated},
      {"repair_ops_issued", c.repair_ops_issued},
      {"repair_ops_completed", c.repair_ops_completed},
      {"repair_ops_failed", c.repair_ops_failed},
      {"repair_bytes_copied", c.repair_bytes_copied},
      {"repair_blocked_permanent", c.repair_blocked_permanent},
      {"chunks_unrepairable", c.chunks_unrepairable},
      {"total_chunks", r.total_chunks},
      {"total_copies", r.total_copies},
      {"under_replicated_now", r.under_replicated_now},
      {"invalid_copies_now", r.invalid_copies_now},
      {"lost_chunks", r.lost_chunks},
      {"under_replicated_chunk_ms",
       static_cast<std::uint64_t>(
           std::llround(r.under_replicated_chunk_seconds * 1e3))},
  };
}

std::string format_replica_report(const replica::DurabilityReport& r) {
  std::ostringstream os;
  for (const auto& [name, value] : replica_counter_rows(r))
    os << "  " << name << ": " << value << "\n";
  return os.str();
}

}  // namespace dpar::metrics
