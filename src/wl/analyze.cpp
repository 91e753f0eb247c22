#include "wl/analyze.hpp"

#include <cstdio>
#include <variant>

#include "sim/rng.hpp"

namespace dpar::wl {

AccessPattern analyze(mpi::Program& prog, std::uint32_t rank, std::uint32_t nprocs,
                      std::uint64_t max_ops) {
  AccessPattern p;
  mpi::ProgramContext ctx;
  ctx.rank = rank;
  ctx.nprocs = nprocs;
  std::map<pfs::FileId, std::uint64_t> last_end;
  std::map<std::uint64_t, std::uint64_t> stride_votes;

  for (std::uint64_t i = 0; i < max_ops; ++i) {
    mpi::Op op = prog.next(ctx);
    if (std::holds_alternative<mpi::OpEnd>(op)) break;
    if (auto* comp = std::get_if<mpi::OpCompute>(&op)) {
      p.compute += comp->duration;
      continue;
    }
    if (std::holds_alternative<mpi::OpBarrier>(op)) {
      ++p.barriers;
      continue;
    }
    auto& call = std::get<mpi::OpIo>(op).call;
    ++p.calls;
    for (const auto& s : call.segments) {
      ++p.segments;
      (call.is_write ? p.write_bytes : p.read_bytes) += s.length;
      p.min_segment = std::min(p.min_segment, s.length);
      p.max_segment = std::max(p.max_segment, s.length);
      auto it = last_end.find(call.file);
      if (it != last_end.end()) {
        if (s.offset == it->second) ++p.sequential_segments;
        if (s.offset > it->second) ++stride_votes[s.offset - it->second];
      }
      last_end[call.file] = s.end();
    }
    if (!call.is_write && !call.segments.empty())
      ctx.last_read_value = sim::content_hash(call.file, call.segments[0].offset);
  }
  if (p.segments == 0) p.min_segment = 0;
  std::uint64_t best = 0;
  for (const auto& [stride, votes] : stride_votes) {
    if (votes > best) {
      best = votes;
      p.dominant_stride = stride;
    }
  }
  return p;
}

std::string describe(const AccessPattern& p) {
  char buf[512];
  std::snprintf(
      buf, sizeof buf,
      "  calls %llu, segments %llu (%.0f B mean, %llu..%llu)\n"
      "  read %.2f MB, write %.2f MB, compute %.3f s\n"
      "  sequentiality %.0f%%, dominant stride %llu B\n"
      "  barriers %llu\n",
      static_cast<unsigned long long>(p.calls),
      static_cast<unsigned long long>(p.segments), p.mean_segment(),
      static_cast<unsigned long long>(p.min_segment),
      static_cast<unsigned long long>(p.max_segment),
      static_cast<double>(p.read_bytes) / 1e6,
      static_cast<double>(p.write_bytes) / 1e6, sim::to_seconds(p.compute),
      p.sequentiality() * 100.0, static_cast<unsigned long long>(p.dominant_stride),
      static_cast<unsigned long long>(p.barriers));
  return buf;
}

}  // namespace dpar::wl
