#include "mpiio/collective.hpp"

#include <algorithm>
#include <utility>

#include "sim/debug.hpp"

namespace dpar::mpiio {
namespace {

/// Sort non-empty `segs` by offset and coalesce overlapping or touching ones,
/// in place.
void sort_and_merge(std::vector<pfs::Segment>& segs) {
  std::sort(segs.begin(), segs.end(), [](const pfs::Segment& a, const pfs::Segment& b) {
    return a.offset < b.offset;
  });
  std::size_t n = 0;
  for (const pfs::Segment& s : segs) {
    if (n > 0 && segs[n - 1].end() >= s.offset) {
      segs[n - 1].length = std::max(segs[n - 1].end(), s.end()) - segs[n - 1].offset;
    } else {
      segs[n++] = s;
    }
  }
  segs.resize(n);
}

}  // namespace

bool plan_round(std::span<const RoundInput> inputs, bool is_write, RoundPlan& plan) {
  plan.flows.clear();
  std::uint64_t lo = UINT64_MAX, hi = 0, useful = 0;
  for (const RoundInput& in : inputs) {
    for (const pfs::Segment& s : in.segments) {
      if (s.length == 0) continue;
      lo = std::min(lo, s.offset);
      hi = std::max(hi, s.end());
      useful += s.length;
    }
  }
  if (useful == 0) {
    plan.aggs.clear();
    return false;
  }

  // Participant nodes by id; every one hosts an aggregator.
  plan.nodes.clear();
  for (const RoundInput& in : inputs) plan.nodes.push_back(in.node);
  std::sort(plan.nodes.begin(), plan.nodes.end());
  plan.nodes.erase(std::unique(plan.nodes.begin(), plan.nodes.end()), plan.nodes.end());
  const std::size_t nnodes = plan.nodes.size();

  plan.cols.resize(inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i)
    plan.cols[i] = static_cast<std::uint32_t>(
        std::lower_bound(plan.nodes.begin(), plan.nodes.end(), inputs[i].node) -
        plan.nodes.begin());
  plan.aggs.resize(nnodes);
  for (std::size_t a = 0; a < nnodes; ++a) {
    plan.aggs[a].node = plan.nodes[a];
    plan.aggs[a].segs.clear();
  }
  // Walking backwards leaves each aggregator the context of the first
  // participant on its node.
  for (std::size_t i = inputs.size(); i-- > 0;)
    plan.aggs[plan.cols[i]].context = inputs[i].context;

  // Split each rank's segments over the aggregators' file domains and add
  // up the exchange per (aggregator, participant node).
  const std::uint64_t extent = hi - lo;
  const std::uint64_t domain = (extent + nnodes - 1) / nnodes;
  plan.table.assign(nnodes * nnodes, RoundFlow{});
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    RoundFlow* column = plan.table.data() + plan.cols[i];
    for (const pfs::Segment& s : inputs[i].segments) {
      std::uint64_t off = s.offset, rem = s.length;
      while (rem > 0) {
        const std::uint64_t a = std::min<std::uint64_t>((off - lo) / domain, nnodes - 1);
        const std::uint64_t dom_end = lo + (a + 1) * domain;
        const std::uint64_t take = std::min(rem, dom_end - off);
        plan.aggs[a].segs.push_back(pfs::Segment{off, take});
        RoundFlow& cell = column[a * nnodes];
        cell.bytes += take;
        cell.meta += 16;  // flattened (offset,len) descriptor
        off += take;
        rem -= take;
      }
    }
  }
  // Every piece has take > 0, so a cell moves data exactly when it was
  // touched, and so does the aggregator of every flow. Row-major order over
  // id-sorted nodes is (aggregator, node id).
  for (std::size_t a = 0; a < nnodes; ++a)
    for (std::size_t c = 0; c < nnodes; ++c) {
      const RoundFlow& cell = plan.table[a * nnodes + c];
      if (cell.meta > 0)
        plan.flows.push_back(RoundFlow{static_cast<std::uint32_t>(a), plan.nodes[c],
                                       cell.bytes, cell.meta});
    }
  DPAR_ASSERT(!plan.flows.empty(), "a round with useful bytes has no flow");

  // Data sieving decision per aggregator: a dense read fetches its whole
  // span in one request; writes keep exact list I/O.
  for (RoundAgg& a : plan.aggs) {
    sort_and_merge(a.segs);
    if (is_write || a.segs.size() <= 1) continue;
    const std::uint64_t span = a.segs.back().end() - a.segs.front().offset;
    std::uint64_t use = 0;
    for (const pfs::Segment& s : a.segs) use += s.length;
    const bool dense =
        span <= kSieveBuffer &&
        static_cast<double>(use) / static_cast<double>(span) >= kSieveMinDensity;
    if (!dense) continue;
    a.segs.front().length = span;
    a.segs.resize(1);
  }
  return true;
}

void CollectiveDriver::io(mpi::Process& proc, const mpi::IoCall& call,
                          sim::UniqueFunction done) {
  if (!call.collective) {
    VanillaDriver::io(proc, call, std::move(done));
    return;
  }
  if (env_.observer)
    env_.observer->observe(proc.job().id(), call.file, call.segments,
                           env_.fs.engine().now());
  std::vector<Entry>& epoch = epochs_[proc.job().id()];
  epoch.push_back(Entry{&proc, &call, std::move(done)});
  if (epoch.size() >= proc.job().live()) run_round(epoch);
}

void CollectiveDriver::on_process_end(mpi::Process& proc) {
  // A rank finishing can complete a pending round (remaining live ranks all
  // arrived already).
  auto it = epochs_.find(proc.job().id());
  if (it == epochs_.end() || it->second.empty()) return;
  const std::uint32_t live = proc.job().live();
  if (live > 0 && it->second.size() >= live) run_round(it->second);
}

void CollectiveDriver::run_round(std::vector<Entry>& epoch) {
  ++rounds_;
  Round* r = rounds_pool_.acquire();
  r->entries.swap(epoch);  // the epoch takes the record's empty vector

  // One target file and direction per round: ROMIO plans per file handle.
  r->file = r->entries.front().call->file;
  r->is_write = r->entries.front().call->is_write;
  r->inputs.clear();
  for (const Entry& e : r->entries) {
    DPAR_ASSERT(e.call->file == r->file && e.call->is_write == r->is_write,
                "collective round mixes files or directions");
    r->inputs.push_back(
        RoundInput{e.proc->node().id(), e.proc->global_id(), e.call->segments});
  }
  if (!plan_round(r->inputs, r->is_write, r->plan)) {
    finish(r, sim::usec(100));  // nothing to move: a barrier hop
    return;
  }
  // Exchange bookkeeping CPU: every rank packs/unpacks state that grows with
  // the participant count.
  r->cpu = kExchangeCpuPerRank * static_cast<sim::Time>(r->entries.size());

  // Phase 1: metadata exchange (everyone ships request lists to aggregators),
  // plus, for writes, the data shuffle owner -> aggregator.
  const RoundPlan& plan = r->plan;
  r->pending = plan.flows.size();
  for (const RoundFlow& f : plan.flows) {
    std::uint64_t bytes = 64 + f.meta;
    if (r->is_write) {  // ship payload with descriptors
      bytes += f.bytes;
      shuffle_bytes_ += f.bytes;
    }
    env_.net.send(f.node, plan.aggs[f.agg].node, bytes, [this, r] {
      if (--r->pending == 0) issue_agg_io(r);
    });
  }
}

// Phase 2: every aggregator with data accesses its file domain (at least one
// has data: the aggregator of every flow does).
void CollectiveDriver::issue_agg_io(Round* r) {
  const RoundPlan& plan = r->plan;
  r->pending = 0;
  for (const RoundAgg& a : plan.aggs)
    if (!a.segs.empty()) ++r->pending;
  for (std::size_t i = 0; i < plan.aggs.size(); ++i) {
    const RoundAgg& a = plan.aggs[i];
    if (a.segs.empty()) continue;
    env_.clients.for_node(a.node).io(r->file, a.segs, r->is_write, a.context,
                                     [this, r](std::uint64_t, fault::Status st) {
                                       note_io_status(env_, st);
                                       agg_io_done(r);
                                     });
  }
}

// Phase 3: writes are done (data travelled before them); reads scatter the
// data from the aggregators to the owner ranks' nodes.
void CollectiveDriver::agg_io_done(Round* r) {
  if (--r->pending > 0) return;
  const RoundPlan& plan = r->plan;
  if (r->is_write) {
    finish(r, r->cpu);
    return;
  }
  r->pending = plan.flows.size();
  for (const RoundFlow& f : plan.flows) {
    shuffle_bytes_ += f.bytes;
    env_.net.send(plan.aggs[f.agg].node, f.node, f.bytes, [this, r] {
      if (--r->pending == 0) finish(r, r->cpu);
    });
  }
}

void CollectiveDriver::finish(Round* r, sim::Time delay) {
  // One completion event per collective round instead of one per rank;
  // consecutive sequence numbers cannot interleave, so order is unchanged.
  std::vector<sim::UniqueFunction> dones;
  dones.reserve(r->entries.size());
  for (Entry& e : r->entries) dones.push_back(std::move(e.done));
  r->entries.clear();
  rounds_pool_.release(r);
  env_.fs.engine().after_all(delay, std::move(dones));
}

}  // namespace dpar::mpiio
