#include "fault/plan.hpp"

#include <stdexcept>
#include <string>

namespace dpar::fault {

namespace {

void check_probability(double p, const char* what) {
  if (p < 0.0 || p > 1.0 || p != p)
    throw std::invalid_argument(std::string("FaultPlan: ") + what +
                                " must be a probability in [0, 1], got " +
                                std::to_string(p));
}

void check_nonnegative(sim::Time t, const char* what) {
  if (t < 0)
    throw std::invalid_argument(std::string("FaultPlan: ") + what +
                                " must be >= 0");
}

}  // namespace

bool FaultPlan::enabled() const {
  return disk.media_error_rate > 0.0 || disk.stall_rate > 0.0 ||
         !disk.bad_sectors.empty() || net.drop_rate > 0.0 ||
         net.delay_rate > 0.0 || !net.partitions.empty() ||
         !server.crashes.empty() || server.stall_rate > 0.0;
}

void FaultPlan::validate() const {
  check_probability(disk.media_error_rate, "disk.media_error_rate");
  check_probability(disk.stall_rate, "disk.stall_rate");
  check_nonnegative(disk.stall_time, "disk.stall_time");
  for (const auto& b : disk.bad_sectors)
    if (b.sectors == 0)
      throw std::invalid_argument("FaultPlan: bad-sector range with zero sectors");

  check_probability(net.drop_rate, "net.drop_rate");
  check_probability(net.delay_rate, "net.delay_rate");
  check_nonnegative(net.delay_time, "net.delay_time");
  for (const auto& p : net.partitions) {
    if (p.end <= p.start)
      throw std::invalid_argument("FaultPlan: partition window is empty");
    if (p.node_a == p.node_b)
      throw std::invalid_argument("FaultPlan: partition of a node with itself");
  }

  check_probability(server.stall_rate, "server.stall_rate");
  check_nonnegative(server.stall_time, "server.stall_time");
  for (const auto& c : server.crashes) {
    if (c.at < 0)
      throw std::invalid_argument("FaultPlan: crash time must be >= 0");
    if (c.restart_at <= c.at)
      throw std::invalid_argument(
          "FaultPlan: crash must restart after it happens (restart_at > at; "
          "use kNeverRestarts for a fail-stop crash)");
    if (c.server == kAllServers)
      throw std::invalid_argument("FaultPlan: crash needs a concrete server index");
  }
}

}  // namespace dpar::fault
