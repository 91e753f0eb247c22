#include "trace.hpp"

#include <cstdio>
#include <stdexcept>
#include <variant>

namespace perfbench {

Tracer::Scope::Scope(Tracer& t, Layer l)
    : t_(t), layer_(l), start_(Clock::now()), parent_(t.top_) {
  t_.top_ = this;
}

Tracer::Scope::~Scope() {
  const std::int64_t dur = elapsed_ns();
  const int i = static_cast<int>(layer_);
  t_.self_ns_[i] += dur - child_ns_;
  ++t_.calls_[i];
  if (parent_ != nullptr) parent_->child_ns_ += dur;
  t_.top_ = parent_;
}

std::int64_t Tracer::Scope::elapsed_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - start_).count();
}

std::int64_t& Tracer::pending_next(std::uint32_t job, std::uint32_t rank) {
  std::vector<std::int64_t>& v = next_ns_[job];
  if (rank >= v.size()) {
    v.resize(rank + 1, 0);
    seq_[job].resize(rank + 1, 0);
  }
  return v[rank];
}

void Tracer::write(const std::string& path, const std::vector<std::string>& job_names) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write trace " + path);
  std::fprintf(f,
               "job\trank\tseq\top\tbytes\tsim_start_ns\tsim_end_ns\thost_start_ns"
               "\tnext_ns\tissue_ns\n");
  for (const Span& s : spans_) {
    std::fprintf(f, "%s\t%u\t%llu\t%c\t%llu\t%lld\t%lld\t%lld\t%lld\t%lld\n",
                 job_names.at(s.job).c_str(), s.rank,
                 static_cast<unsigned long long>(s.seq), s.is_write ? 'W' : 'R',
                 static_cast<unsigned long long>(s.bytes),
                 static_cast<long long>(s.sim_start_ns), static_cast<long long>(s.sim_end_ns),
                 static_cast<long long>(s.host_start_ns), static_cast<long long>(s.next_ns),
                 static_cast<long long>(s.issue_ns));
  }
  const bool ok = std::fclose(f) == 0;
  if (!ok) throw std::runtime_error("cannot write trace " + path);
}

void TracedDriver::io(dpar::mpi::Process& proc, const dpar::mpi::IoCall& call,
                      dpar::sim::UniqueFunction done) {
  Tracer& t = tracer_;
  dpar::sim::Engine& eng = proc.job().engine();
  const std::uint32_t rank = proc.rank();
  std::int64_t& next_ns = t.pending_next(job_, rank);
  Span s;
  s.job = job_;
  s.rank = rank;
  s.seq = t.seq_[job_][rank]++;
  s.bytes = call.total_bytes();
  s.is_write = call.is_write;
  s.sim_start_ns = eng.now();
  s.next_ns = next_ns;
  next_ns = 0;
  const std::size_t idx = t.spans_.size();
  t.spans_.push_back(s);

  Tracer::Scope scope(t, issue_);
  t.spans_[idx].host_start_ns = t.since_start_ns(Tracer::Clock::now());
  inner_.io(proc, call, [&t, &eng, idx, done = std::move(done)]() mutable {
    t.spans_[idx].sim_end_ns = eng.now();
    done();
  });
  // The span vector may have grown (and moved) inside io(): index, not pointer.
  t.spans_[idx].issue_ns = scope.elapsed_ns();
}

dpar::mpi::Op TracedProgram::next(dpar::mpi::ProgramContext& ctx) {
  Tracer::Scope scope(tracer_, Layer::kWlNext);
  dpar::mpi::Op op = inner_->next(ctx);
  if (!ctx.ghost && std::holds_alternative<dpar::mpi::OpIo>(op))
    tracer_.pending_next(job_, ctx.rank) = scope.elapsed_ns();
  return op;
}

}  // namespace perfbench
