#include "replica/manager.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "pfs/server.hpp"
#include "sim/debug.hpp"

namespace dpar::replica {

namespace {
/// Disk-scheduler I/O context of repair traffic: one shared background
/// context, distinct from every foreground op's.
constexpr std::uint64_t kRepairContext = ~0ull;
/// Token bucket depth, in scan intervals' worth of budget: bounds the burst
/// a long idle stretch can bank up.
constexpr double kTokenBucketDepth = 4.0;
/// Scan/dispatch period of the repair manager.
constexpr sim::Time kRepairScanInterval = sim::msec(20);
/// Copy attempts per (chunk, role) before it is marked unrepairable (e.g. the
/// surviving copy sits on a latent bad-sector range).
constexpr std::uint32_t kRepairAttemptCap = 4;

bool test_bit(const std::vector<std::uint64_t>& bits, std::size_t i) {
  return (bits[i / 64] >> (i % 64)) & 1u;
}
void set_bit(std::vector<std::uint64_t>& bits, std::size_t i) {
  bits[i / 64] |= std::uint64_t{1} << (i % 64);
}
void clear_bit(std::vector<std::uint64_t>& bits, std::size_t i) {
  bits[i / 64] &= ~(std::uint64_t{1} << (i % 64));
}

/// Call `fn(i)` for every set bit `i` in ascending order until it returns
/// true; returns whether it did.
template <class Fn>
bool any_set_bit(const std::vector<std::uint64_t>& bits, Fn&& fn) {
  for (std::size_t w = 0; w < bits.size(); ++w)
    for (std::uint64_t word = bits[w]; word != 0; word &= word - 1)
      if (fn(w * 64 + static_cast<std::size_t>(std::countr_zero(word)))) return true;
  return false;
}
}  // namespace

RepairManager::RepairManager(sim::Engine& eng, net::Network& net,
                             pfs::FileSystem& fs, ReplicaMap map,
                             fault::FaultInjector* injector,
                             net::NodeId mds_node,
                             std::function<bool()> jobs_live)
    : eng_(eng),
      net_(net),
      fs_(fs),
      map_(std::move(map)),
      injector_(injector),
      mds_node_(mds_node),
      jobs_live_(std::move(jobs_live)) {
  if (injector_) {
    // Our crash model: a dead server's replica regions are dirty — every
    // copy it hosts must be re-replicated from a surviving copy once it is
    // back (the motivation's "a server crash silently loses data").
    injector_->add_server_listener(
        [this](std::uint32_t server, bool down) { on_server_state_(server, down); });
  }
}

void RepairManager::register_file(pfs::FileId id, std::uint64_t size) {
  FileState f;
  f.id = id;
  f.size = size;
  f.chunks = map_.num_chunks(size);
  const std::uint32_t rf = map_.replication_factor();
  const std::size_t copies = f.chunks * rf;
  f.invalid.assign((copies + 63) / 64, 0);
  f.live.assign(f.chunks, rf);
  // Every copy starts valid, so only a server that is down already can leave
  // a chunk short.
  if (injector_ && injector_->servers_down() > 0)
    for (std::uint64_t k = 0; k < f.chunks; ++k) {
      for (std::uint32_t r = 0; r < rf; ++r)
        if (!server_up_(map_.server_of(k, r))) --f.live[k];
      under_count_ += f.live[k] < rf ? 1 : 0;
    }
  f.attempts.assign(copies, 0);
  f.repairing.assign(copies, 0);
  f.seq.assign(copies, 0);
  f.issue.assign(copies, 0);
  tracked_.push_back(std::move(f));
}

bool RepairManager::server_up_(std::uint32_t server) const {
  return !injector_ || !injector_->server_down(server);
}

bool RepairManager::copy_live_(const FileState& f, std::uint64_t chunk,
                               std::uint32_t role) const {
  if (test_bit(f.invalid, chunk * map_.replication_factor() + role)) return false;
  return server_up_(map_.server_of(chunk, role));
}

void RepairManager::lose_live_(FileState& f, std::uint64_t chunk) {
  DPAR_ASSERT(f.live[chunk] > 0, "live-copy count underflow");
  if (f.live[chunk]-- == map_.replication_factor()) ++under_count_;
}

void RepairManager::gain_live_(FileState& f, std::uint64_t chunk) {
  DPAR_ASSERT(f.live[chunk] < map_.replication_factor(), "live-copy count overflow");
  if (++f.live[chunk] == map_.replication_factor()) --under_count_;
}

std::uint64_t RepairManager::count_under_scan_() const {
  const std::uint32_t rf = map_.replication_factor();
  std::uint64_t under = 0;
  for (const FileState& f : tracked_)
    for (std::uint64_t k = 0; k < f.chunks; ++k) {
      std::uint32_t live = 0;
      for (std::uint32_t r = 0; r < rf; ++r) live += copy_live_(f, k, r) ? 1 : 0;
      under += live < rf ? 1 : 0;
    }
  return under;
}

void RepairManager::touch_() {
  const sim::Time now = eng_.now();
  under_chunk_ns_ += static_cast<double>(under_now_) *
                     static_cast<double>(now - under_since_);
  under_since_ = now;
  DPAR_IF_CHECKING(DPAR_ASSERT(under_count_ == count_under_scan_(),
                               "incremental under-replication count != full scan"));
  under_now_ = under_count_;
}

void RepairManager::note_invalid_(FileState& f, std::uint64_t chunk,
                                  std::uint32_t role) {
  const std::size_t slot = chunk * map_.replication_factor() + role;
  ++f.seq[slot];
  if (!test_bit(f.invalid, slot)) {
    set_bit(f.invalid, slot);
    ++counters().chunks_invalidated;
    if (server_up_(map_.server_of(chunk, role))) lose_live_(f, chunk);
  }
}

void RepairManager::on_server_state_(std::uint32_t server, bool down) {
  // The injector flipped the server's state before calling us: move the live
  // counts of its valid copies. On a crash every copy it hosts also goes
  // stale (the server is down by now, so note_invalid_ moves no count a
  // second time).
  const std::uint32_t rf = map_.replication_factor();
  for (FileState& f : tracked_)
    for (std::uint64_t k = 0; k < f.chunks; ++k)
      for (std::uint32_t r = 0; r < rf; ++r) {
        if (map_.server_of(k, r) != server) continue;
        if (!test_bit(f.invalid, k * rf + r)) {
          if (down)
            lose_live_(f, k);
          else
            gain_live_(f, k);
        }
        if (down) note_invalid_(f, k, r);
      }
  touch_();
  // A restart makes blocked deficits actionable again; restart the daemon if
  // its tick chain had wound down after the jobs finished.
  if (!down && started_ && !ticking_ && deficit_actionable_()) arm_tick_();
}

void RepairManager::post_invalid_copies(pfs::FileId file, std::uint32_t role,
                                        std::vector<std::uint64_t> chunks) {
  if (chunks.empty()) return;
  eng_.after(net::kSwitchLatency, [this, file, role, chunks = std::move(chunks)] {
    for (FileState& f : tracked_)
      if (f.id == file)
        for (std::uint64_t k : chunks) note_invalid_(f, k, role);
    touch_();
    if (started_ && !ticking_ && deficit_actionable_()) arm_tick_();
  });
}

bool RepairManager::deficit_actionable_() const {
  if (!injector_) return false;
  const std::uint32_t rf = map_.replication_factor();
  const sim::Time now = eng_.now();
  for (const FileState& f : tracked_)
    if (any_set_bit(f.invalid, [&](std::size_t slot) {
          if (f.repairing[slot]) return false;
          if (f.attempts[slot] >= kRepairAttemptCap) return false;
          const std::uint64_t k = slot / rf;
          const std::uint32_t r = static_cast<std::uint32_t>(slot % rf);
          if (injector_->server_down(map_.server_of(k, r))) return false;
          for (std::uint32_t s = 0; s < rf; ++s)
            if (s != r && copy_live_(f, k, s) &&
                !injector_->permanently_down(map_.server_of(k, s), now))
              return true;
          return false;
        }))
      return true;
  return false;
}

void RepairManager::issue_repair_(std::size_t file_idx, std::uint64_t chunk,
                                  std::uint32_t role, std::uint32_t source_role) {
  FileState& f = tracked_[file_idx];
  const std::uint32_t rf = map_.replication_factor();
  const std::size_t slot = chunk * rf + role;
  const std::uint64_t unit = map_.layout().unit_bytes;
  const std::uint64_t bytes = std::min(unit, f.size - chunk * unit);
  const std::uint64_t file_off = chunk * unit;
  f.repairing[slot] = 1;
  ++f.attempts[slot];
  ++in_flight_;
  ++counters().repair_ops_issued;
  const std::uint32_t issued_seq = f.seq[slot];
  const std::uint64_t issue_id = next_issue_++;
  f.issue[slot] = issue_id;

  pfs::DataServer& src = fs_.server(map_.server_of(chunk, source_role));
  pfs::DataServer& tgt = fs_.server(map_.server_of(chunk, role));
  const net::NodeId src_node = src.node();
  const net::NodeId tgt_node = tgt.node();
  const std::uint64_t src_local =
      map_.replica_local_offset(f.size, file_off, source_role);
  const std::uint64_t tgt_local = map_.replica_local_offset(f.size, file_off, role);

  // The whole copy must finish (or fail) within this budget, or the tick
  // declares the attempt dead (e.g. the source crashed and its reply was
  // squashed) and schedules a fresh one.
  const sim::Time patience =
      2 * injector_->request_timeout(bytes) + kRepairScanInterval;
  eng_.after(patience, [this, file_idx, chunk, role, issue_id, issued_seq] {
    repair_done_(file_idx, chunk, role, issue_id, issued_seq,
                 fault::Status::kTimeout);
  });

  // Control message metadata-server -> source, then a replica-local read at
  // the source, the chunk's bytes across the fabric, a replica-local write
  // at the target, and a completion note hopping home through the metadata
  // node. Every stage shares the foreground path's
  // service threads, disk schedulers and NIC FIFOs — repair genuinely
  // competes with application I/O.
  auto note = [this, file_idx, chunk, role, issue_id, issued_seq](fault::Status st) {
    eng_.after(net::kSwitchLatency,
               [this, file_idx, chunk, role, issue_id, issued_seq, st] {
                 repair_done_(file_idx, chunk, role, issue_id, issued_seq, st);
               });
  };
  net_.send(
      mds_node_, src_node, 128,
      [this, &src, &tgt, src_node, tgt_node, src_local, tgt_local, bytes,
       file_id = f.id, note = std::move(note)]() mutable {
        pfs::ServerIoRequest rd;
        rd.file = file_id;
        rd.is_write = false;
        rd.context = kRepairContext;
        rd.runs.push_back(pfs::ServerRun{src_local, bytes});
        rd.done = [this, &tgt, src_node, tgt_node, tgt_local, bytes, file_id,
                   note = std::move(note)](fault::Status st) mutable {
          if (!fault::ok(st)) {
            // Read-side failure (media error on the surviving copy): report
            // home without moving the payload.
            net_.send(src_node, mds_node_, 64,
                      [st, note = std::move(note)]() mutable { note(st); });
            return;
          }
          net_.send(
              src_node, tgt_node, bytes + 64,
              [this, &tgt, tgt_node, tgt_local, bytes, file_id,
               note = std::move(note)]() mutable {
                pfs::ServerIoRequest wr;
                wr.file = file_id;
                wr.is_write = true;
                wr.context = kRepairContext;
                wr.runs.push_back(pfs::ServerRun{tgt_local, bytes});
                wr.done = [this, tgt_node,
                           note = std::move(note)](fault::Status st) mutable {
                  net_.send(tgt_node, mds_node_, 64,
                            [st, note = std::move(note)]() mutable { note(st); });
                };
                tgt.handle(std::move(wr));
              });
        };
        src.handle(std::move(rd));
      });
}

void RepairManager::repair_done_(std::size_t file_idx, std::uint64_t chunk,
                                 std::uint32_t role, std::uint64_t issue_id,
                                 std::uint32_t issued_seq, fault::Status st) {
  FileState& f = tracked_[file_idx];
  const std::size_t slot = chunk * map_.replication_factor() + role;
  // Act only on the current in-flight repair: a late watchdog (or a stale
  // completion racing it) must not touch a later reissue of the same copy.
  if (!f.repairing[slot] || f.issue[slot] != issue_id) return;
  f.repairing[slot] = 0;
  DPAR_ASSERT(in_flight_ > 0, "repair completion without an in-flight op");
  --in_flight_;
  const std::uint64_t unit = map_.layout().unit_bytes;
  if (fault::ok(st) && f.seq[slot] == issued_seq) {
    // Unchanged seq: the copy has been stale since the issue, and its target
    // never went down (a crash invalidates, bumping seq).
    DPAR_ASSERT(test_bit(f.invalid, slot) && server_up_(map_.server_of(chunk, role)),
                "validated repair of a copy that is not stale on an up server");
    clear_bit(f.invalid, slot);
    gain_live_(f, chunk);
    f.attempts[slot] = 0;
    ++counters().repair_ops_completed;
    counters().repair_bytes_copied += std::min(unit, f.size - chunk * unit);
  } else {
    ++counters().repair_ops_failed;
    if (f.attempts[slot] >= kRepairAttemptCap)
      ++counters().chunks_unrepairable;
  }
  touch_();
  if (started_ && !ticking_ && deficit_actionable_()) arm_tick_();
}

void RepairManager::start() {
  if (!injector_ || started_) return;
  started_ = true;
  last_tick_ = eng_.now();
  under_since_ = eng_.now();
  arm_tick_();
}

void RepairManager::arm_tick_() {
  ticking_ = true;
  eng_.after(kRepairScanInterval, [this] {
    ticking_ = false;
    tick();
  });
}

void RepairManager::tick() {
  if (!injector_) return;
  touch_();
  const sim::Time now = eng_.now();
  const double interval_s = sim::to_seconds(kRepairScanInterval);
  repair_tokens_ = std::min(
      repair_tokens_ +
          config().repair_bandwidth * sim::to_seconds(now - last_tick_),
      config().repair_bandwidth * interval_s * kTokenBucketDepth);
  last_tick_ = now;

  const std::uint32_t rf = map_.replication_factor();
  const std::uint64_t unit = map_.layout().unit_bytes;
  const std::uint32_t batch = config().repair_batch_chunks;
  std::uint32_t issued = 0;
  // Stale copies in (file, chunk, role) order, until the batch is full.
  for (std::size_t fi = 0; fi < tracked_.size() && issued < batch; ++fi) {
    FileState& f = tracked_[fi];
    any_set_bit(f.invalid, [&](std::size_t slot) {
      if (f.repairing[slot]) return false;
      if (f.attempts[slot] >= kRepairAttemptCap) return false;
      const std::uint64_t k = slot / rf;
      const std::uint32_t r = static_cast<std::uint32_t>(slot % rf);
      const std::uint32_t target = map_.server_of(k, r);
      if (injector_->permanently_down(target, now)) {
        // Fixed placement cannot re-home a copy: a fail-stop target leaves
        // this deficit standing forever. Count it once and stop retrying.
        f.attempts[slot] = kRepairAttemptCap;
        ++counters().repair_blocked_permanent;
        return false;
      }
      if (injector_->server_down(target)) return false;  // wait for the restart
      std::uint32_t source = UINT32_MAX;
      for (std::uint32_t s = 0; s < rf && source == UINT32_MAX; ++s)
        if (s != r && copy_live_(f, k, s)) source = s;
      if (source == UINT32_MAX) return false;
      const std::uint64_t bytes = std::min(unit, f.size - k * unit);
      if (repair_tokens_ < static_cast<double>(bytes)) return false;
      repair_tokens_ -= static_cast<double>(bytes);
      issue_repair_(fi, k, r, source);
      return ++issued >= batch;
    });
  }
  if (jobs_live_() || in_flight_ > 0 || deficit_actionable_()) arm_tick_();
}

DurabilityReport RepairManager::report() const {
  DurabilityReport rep;
  rep.counters = total();
  const std::uint32_t rf = map_.replication_factor();
  const sim::Time now = eng_.now();
  for (const FileState& f : tracked_) {
    rep.total_chunks += f.chunks;
    for (std::uint64_t k = 0; k < f.chunks; ++k) {
      std::uint32_t live = 0, recoverable = 0;
      for (std::uint32_t r = 0; r < rf; ++r) {
        const std::size_t slot = k * rf + r;
        const bool invalid = test_bit(f.invalid, slot);
        rep.invalid_copies_now += invalid ? 1 : 0;
        live += copy_live_(f, k, r) ? 1 : 0;
        const bool gone =
            injector_ && injector_->permanently_down(map_.server_of(k, r), now);
        recoverable += (!invalid && !gone) ? 1 : 0;
      }
      rep.under_replicated_now += live < rf ? 1 : 0;
      rep.lost_chunks += recoverable == 0 ? 1 : 0;
    }
  }
  rep.total_copies = rep.total_chunks * rf;
  rep.under_replicated_chunk_seconds =
      (under_chunk_ns_ + static_cast<double>(under_now_) *
                             static_cast<double>(now - under_since_)) /
      1e9;
  return rep;
}

}  // namespace dpar::replica
