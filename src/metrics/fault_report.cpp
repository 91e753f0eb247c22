#include "metrics/fault_report.hpp"

#include <sstream>

namespace dpar::metrics {

std::vector<std::pair<std::string, std::uint64_t>> fault_counter_rows(
    const fault::Counters& c) {
  return {
      {"disk_media_errors", c.disk_media_errors},
      {"disk_bad_sector_hits", c.disk_bad_sector_hits},
      {"disk_stalls", c.disk_stalls},
      {"net_dropped", c.net_dropped},
      {"net_partition_drops", c.net_partition_drops},
      {"net_delayed", c.net_delayed},
      {"server_crashes", c.server_crashes},
      {"server_restarts", c.server_restarts},
      {"server_refused_requests", c.server_refused_requests},
      {"server_lost_completions", c.server_lost_completions},
      {"server_stalls", c.server_stalls},
      {"client_ops_started", c.client_ops_started},
      {"client_ops_finished", c.client_ops_finished},
      {"client_timeouts", c.client_timeouts},
      {"client_retries", c.client_retries},
      {"client_recoveries", c.client_recoveries},
      {"client_failures", c.client_failures},
      {"client_permanent_failures", c.client_permanent_failures},
      {"client_stale_replies", c.client_stale_replies},
      {"driver_io_errors", c.driver_io_errors},
      {"dualpar_aborted_batches", c.dualpar_aborted_batches},
      {"cache_invalidated_bytes", c.cache_invalidated_bytes},
      {"emc_degraded_entries", c.emc_degraded_entries},
      {"emc_degraded_exits", c.emc_degraded_exits},
  };
}

std::string format_fault_report(const fault::Counters& c) {
  std::ostringstream os;
  for (const auto& [name, value] : fault_counter_rows(c))
    os << "  " << name << ": " << value << "\n";
  return os.str();
}

}  // namespace dpar::metrics
