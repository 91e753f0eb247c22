// Allocation budget of the fault-free request path and of collective rounds.
//
// This binary replaces the global operator new with a counting one, so it is
// built as its own executable. It runs vanilla MPI-IO's piecewise 40 B
// requests through client, network, data server, RAID-0 and disk, and checks
// that a run on warmed-up pools makes almost no heap allocation per server
// request. What remains is per call (the program's op, the piecewise walk
// over the call's segments), not per request. A collective BTIO job checks
// the same for two-phase rounds: the round plan is built once per round in a
// pooled record, never copied per message.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "harness/testbed.hpp"
#include "wl/workloads.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define DPAR_COUNT_ALLOCS 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define DPAR_COUNT_ALLOCS 0
#endif
#endif
#ifndef DPAR_COUNT_ALLOCS
#define DPAR_COUNT_ALLOCS 1
#endif

#if DPAR_COUNT_ALLOCS
namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

// A replacement operator new has to sit on malloc, and its deletes on free.
// NOLINTBEGIN(cppcoreguidelines-no-malloc)
void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
// NOLINTEND(cppcoreguidelines-no-malloc)
#endif

namespace dpar {
namespace {

#if DPAR_COUNT_ALLOCS

std::uint64_t server_requests(harness::Testbed& tb) {
  std::uint64_t n = 0;
  for (std::uint32_t s = 0; s < tb.num_servers(); ++s)
    n += tb.server(s).requests_handled();
  return n;
}

/// One strided writer and one strided reader of 40 B regions. Vanilla
/// MPI-IO sends every region of a call as its own single-server request;
/// 1024 regions per call keep the per-call costs (program op, piece walk)
/// far below the per-request budget.
void add_strided_jobs(harness::Testbed& tb, pfs::FileId wfile, pfs::FileId rfile) {
  wl::HpioConfig hc;
  hc.region_size = 40;
  hc.region_spacing = 216;
  hc.region_count = 2048;
  hc.regions_per_call = 1024;
  hc.file = wfile;
  hc.is_write = true;
  tb.add_job(
      "writer", 32, tb.vanilla(), [hc](std::uint32_t) { return wl::make_hpio(hc); },
      dualpar::Policy::kForcedNormal);
  hc.file = rfile;
  hc.is_write = false;
  tb.add_job(
      "reader", 32, tb.vanilla(), [hc](std::uint32_t) { return wl::make_hpio(hc); },
      dualpar::Policy::kForcedNormal);
}

TEST(AllocBudget, FaultFreeVanillaRequestPathIsAllocationFree) {
  harness::TestbedConfig cfg;
  cfg.keep_traces = false;
  harness::Testbed tb(cfg);
  const std::uint64_t file_bytes = 32ull * 2048 * 256;
  const pfs::FileId wfile = tb.create_file("w", file_bytes);
  const pfs::FileId rfile = tb.create_file("r", file_bytes);

  // Warm-up: pools, FIFO rings and scheduler queues grow to their peak.
  add_strided_jobs(tb, wfile, rfile);
  tb.run();

  add_strided_jobs(tb, wfile, rfile);
  const std::uint64_t requests_before = server_requests(tb);
  const std::uint64_t allocs_before = g_allocs.load();
  tb.run();
  const std::uint64_t allocs = g_allocs.load() - allocs_before;
  const std::uint64_t requests = server_requests(tb) - requests_before;

  ASSERT_GT(requests, 100'000u);
  const double per_request = static_cast<double>(allocs) / static_cast<double>(requests);
  EXPECT_LT(per_request, 0.05) << allocs << " heap allocations for " << requests
                               << " server requests";
}

/// A 64-rank BTIO job of 40 B cells under two-phase collective I/O: every
/// write step and the read-back is one collective round.
void add_collective_btio(harness::Testbed& tb, pfs::FileId file) {
  wl::BtioConfig bc;
  bc.file = file;
  bc.total_bytes = 2ull << 20;
  bc.row_bytes = 64 * 40;
  bc.write_steps = 8;
  bc.read_back = true;
  bc.collective = true;
  tb.add_job(
      "btio", 64, tb.collective(), [bc](std::uint32_t) { return wl::make_btio(bc); },
      dualpar::Policy::kForcedNormal);
}

TEST(AllocBudget, CollectiveRoundsAllocatePerCallNotPerMessage) {
  harness::TestbedConfig cfg;
  cfg.keep_traces = false;
  harness::Testbed tb(cfg);
  const pfs::FileId file = tb.create_file("btio", 4ull << 20);

  add_collective_btio(tb, file);  // warm-up
  tb.run();

  add_collective_btio(tb, file);
  const std::uint64_t rounds_before = tb.collective().collective_rounds();
  const std::uint64_t allocs_before = g_allocs.load();
  tb.run();
  const std::uint64_t allocs = g_allocs.load() - allocs_before;
  const std::uint64_t rounds = tb.collective().collective_rounds() - rounds_before;

  // Measured: 378 per round, almost all per call on the program side (a
  // call's 16-cell segment vector grows five times, plus the shared call),
  // 64 calls a round. Copying the round plan into every message's
  // continuation made about 1,040.
  ASSERT_GT(rounds, 100u);
  const double per_round = static_cast<double>(allocs) / static_cast<double>(rounds);
  EXPECT_LT(per_round, 450.0) << allocs << " heap allocations for " << rounds
                              << " collective rounds";
}

#else

TEST(AllocBudget, FaultFreeVanillaRequestPathIsAllocationFree) {
  GTEST_SKIP() << "sanitizer builds own operator new; allocations are not counted";
}

TEST(AllocBudget, CollectiveRoundsAllocatePerCallNotPerMessage) {
  GTEST_SKIP() << "sanitizer builds own operator new; allocations are not counted";
}

#endif  // DPAR_COUNT_ALLOCS

}  // namespace
}  // namespace dpar
