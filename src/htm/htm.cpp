#include "htm/htm.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstdlib>

#include "common/check.hpp"

namespace st::htm {

HtmSystem::HtmSystem(sim::Heap& heap, sim::MemorySystem& mem,
                     sim::MachineStats& stats)
    : heap_(heap), mem_(mem), stats_(stats), tx_(mem.config().cores) {
  mem_.set_conflict_sink(this);
}

void HtmSystem::begin(CoreId c) {
  TxState& tx = tx_[c];
  ST_CHECK_MSG(!tx.active, "nested transactions are not supported");
  tx.active = true;
  tx.pending_abort = false;
  tx.info = AbortInfo{};
  tx.wb.clear();
  tx.allocs.clear();
  tx.deferred_frees.clear();
}

void HtmSystem::on_conflict_abort(CoreId victim, Addr line, bool pc_valid,
                                  std::uint16_t pc_tag, std::uint32_t first_pc,
                                  CoreId requester, std::uint32_t requester_pc) {
  TxState& tx = tx_[victim];
  ST_CHECK_MSG(tx.active, "conflict abort of a core not in a transaction");
  // A victim may be hit several times before it notices; keep the first.
  if (!tx.pending_abort) {
    tx.pending_abort = true;
    tx.info.cause = AbortCause::Conflict;
    tx.info.conflict_line = line;
    tx.info.pc_tag_valid = pc_valid;
    tx.info.pc_tag = pc_tag;
    tx.info.true_first_pc = first_pc;
    tx.info.aborter = requester;
    stats_.record_abort({victim, line, first_pc, pc_tag,
                         clock_ ? clock_() : 0});
    // Aggressor context must be sampled now (the stamp), not at the
    // victim's abort finalization: by then the aggressor may have committed
    // and begun a different atomic block.
    if (prov_ != nullptr)
      prov_->on_conflict_stamp(victim, line, requester, requester_pc);
  }
  // Requester-wins: the victim's speculatively written *shared* lines must
  // vanish immediately so the requester observes committed data. Lines
  // still private to the victim (no requester can name one) keep their
  // residency and marks, since the doomed victim keeps hitting them until
  // it observes the abort, and the speculative log stays whole until the
  // victim's own abort() drains it.
  mem_.invalidate_speculative_writes(victim);
}

AbortInfo HtmSystem::abort(CoreId c, AbortCause self_cause) {
  TxState& tx = tx_[c];
  ST_CHECK_MSG(tx.active, "abort of a core not in a transaction");
  if (!tx.pending_abort) {
    tx.info = AbortInfo{};
    tx.info.cause = self_cause == AbortCause::None ? AbortCause::Explicit
                                                   : self_cause;
  }
  if (prov_ != nullptr) {
    // Footprint and attribution must be read before the drain below wipes
    // the speculative log (capacity aborts already captured at stamp time).
    prov_capture_footprint(c);
    prov_->on_abort_finalize(
        c, static_cast<std::uint8_t>(tx.info.cause), tx.info.conflict_line,
        tx.info.pc_tag_valid, tx.info.pc_tag, tx.info.true_first_pc,
        heap_.alloc_site_for(tx.info.conflict_line),
        priv_ != nullptr ? priv_->private_owner(tx.info.conflict_line) : -1,
        clock_now());
  }
  // This runs at the victim's own step: the full drain clears the marks and
  // log the cross-core stamp left in place, invalidates any written lines
  // the stamp exempted as private, and records the spec-log high-water
  // mark.
  mem_.clear_speculative(c, /*invalidate_written=*/true);
  switch (tx.info.cause) {
    case AbortCause::Conflict: ++stats_.core(c).aborts_conflict; break;
    case AbortCause::Capacity: ++stats_.core(c).aborts_capacity; break;
    case AbortCause::Glock: ++stats_.core(c).aborts_glock; break;
    default: ++stats_.core(c).aborts_explicit; break;
  }
  if (trace_ != nullptr) {
    // a32 carries the aborting core +1 so 0 can mean "self-inflicted".
    const std::uint32_t aborter =
        tx.info.cause == AbortCause::Conflict ? tx.info.aborter + 1 : 0;
    trace_->emit(c, {clock_now(), obs::EventKind::kTxAbort,
                     static_cast<std::uint8_t>(tx.info.cause),
                     tx.info.pc_tag_valid ? tx.info.pc_tag
                                          : std::uint16_t{0},
                     aborter, tx.info.conflict_line});
  }
  // Roll back: drop speculative stores, undo allocations, cancel frees.
  // try_dealloc (not dealloc): program-issued frees may be invalid under a
  // corrupted execution (checker mode, deliberately-broken builds); the
  // harness reports heap.invalid_frees() instead of aborting the process.
  tx.wb.clear();
  for (Addr a : tx.allocs) heap_.try_dealloc(a);
  tx.allocs.clear();
  tx.deferred_frees.clear();
  tx.active = false;
  tx.pending_abort = false;
  return tx.info;
}

bool HtmSystem::commit(CoreId c, Cycle* publish_latency) {
  TxState& tx = tx_[c];
  ST_CHECK_MSG(tx.active, "commit of a core not in a transaction");
  if (tx.pending_abort) return false;
  if (lazy()) {
    // Commit-time conflict detection: acquire ownership of every written
    // line, aborting transactions that touched them (committer wins).
    Cycle lat = 0;
    mem_.speculative_written_lines(c, publish_scratch_);
    for (Addr line : publish_scratch_)
      lat += mem_.publish_line(c, line);
    if (publish_latency != nullptr) *publish_latency = lat;
  }
  // Footprint shape metric: speculative lines still resident at commit
  // (O(1): the speculative-line log length). Recorded before the log is
  // drained below.
  stats_.core(c).h_spec_footprint.add(mem_.speculative_lines(c));
  // Committed footprint, read before the drain: advisory-lock waiters that
  // observed this core holding their lock classify their serialization
  // against exactly the lines this attempt touched.
  if (prov_ != nullptr) prov_capture_footprint(c);
  drain_wb(c, tx);
  mem_.clear_speculative(c, /*invalidate_written=*/false);
  for (Addr a : tx.deferred_frees) heap_.try_dealloc(a);
  tx.deferred_frees.clear();
  tx.allocs.clear();
  tx.wb.clear();
  tx.active = false;
  ++stats_.core(c).commits;
  return true;
}

namespace {
// Latched once: a getenv per capacity abort was measurable on overflow-heavy
// workloads, and getenv is not guaranteed thread-safe once experiment runs
// execute concurrently.
bool debug_cap_enabled() {
  static const bool enabled = std::getenv("ST_DEBUG_CAP") != nullptr;
  return enabled;
}
}  // namespace

void HtmSystem::mark_capacity_abort(CoreId c, Addr a) {
  // The trace operands (including the speculative-line count, which is an
  // O(1) log-size read but was a full O(L1) sweep before the
  // speculative-line log) are only evaluated when ST_DEBUG_CAP is set.
  if (debug_cap_enabled()) [[unlikely]] {
    std::fprintf(stderr, "CAPACITY core=%u addr=%llx line=%llx set=%llu spec_lines=%u\n",
                 c, (unsigned long long)a, (unsigned long long)sim::line_addr(a),
                 (unsigned long long)(sim::line_index(a) & 127), mem_.speculative_lines(c));
  }
  TxState& tx = tx_[c];
  ST_CHECK_MSG(tx.active, "capacity abort outside a transaction");
  tx.pending_abort = true;
  tx.info = AbortInfo{};
  tx.info.cause = AbortCause::Capacity;
  tx.info.conflict_line = sim::line_addr(a);
  if (prov_ != nullptr) {
    // Unlike conflict stamps, capacity clears speculative state right here,
    // so the footprint must be captured now (abort() keeps this first one).
    prov_capture_footprint(c);
    prov_->on_capacity_stamp(c, sim::line_addr(a));
  }
  mem_.clear_speculative(c, /*invalidate_written=*/true);
}

void HtmSystem::prov_capture_footprint(CoreId c) {
  if (prov_->footprint_captured(c)) return;
  mem_.speculative_line_addrs(c, prov_scratch_);
  prov_->capture_footprint(c, prov_scratch_);
}

std::uint64_t HtmSystem::read_through_wb(const TxState& tx, Addr a,
                                         unsigned size) const {
  const Addr chunk = a >> 3;
  const unsigned off = static_cast<unsigned>(a & 7);
  std::uint64_t v = heap_.load(a, size);
  auto it = tx.wb.find(chunk);
  if (it == tx.wb.end()) return v;
  const WbChunk& wc = it->second;
  for (unsigned i = 0; i < size; ++i) {
    if (wc.mask & (1u << (off + i))) {
      const std::uint64_t byte = (wc.data >> (8 * (off + i))) & 0xFF;
      v = (v & ~(std::uint64_t{0xFF} << (8 * i))) | (byte << (8 * i));
    }
  }
  return v;
}

void HtmSystem::write_to_wb(TxState& tx, Addr a, std::uint64_t v,
                            unsigned size) {
  const Addr chunk = a >> 3;
  const unsigned off = static_cast<unsigned>(a & 7);
  WbChunk& wc = tx.wb[chunk];
  for (unsigned i = 0; i < size; ++i) {
    const std::uint64_t byte = (v >> (8 * i)) & 0xFF;
    wc.data = (wc.data & ~(std::uint64_t{0xFF} << (8 * (off + i)))) |
              (byte << (8 * (off + i)));
    wc.mask |= static_cast<std::uint8_t>(1u << (off + i));
  }
}

void HtmSystem::drain_wb(CoreId c, TxState& tx) {
  for (const auto& [chunk, wc] : tx.wb) {
    const Addr base = chunk << 3;
    std::uint64_t v = heap_.load(base, 8);
    for (unsigned i = 0; i < 8; ++i) {
      if (wc.mask & (1u << i)) {
        const std::uint64_t byte = (wc.data >> (8 * i)) & 0xFF;
        v = (v & ~(std::uint64_t{0xFF} << (8 * i))) | (byte << (8 * i));
      }
    }
    heap_.store(base, v, 8);
    // Commit is the publication point for transactional stores (aborted
    // attempts publish nothing): the merged chunk value just became
    // committed, shared-readable data.
    publish_stored_value(c, base, v, 0);
  }
}

HtmSystem::MemOp HtmSystem::load(CoreId c, Addr a, unsigned size,
                                 std::uint32_t pc) {
  TxState& tx = tx_[c];
  ST_CHECK_MSG(tx.active, "transactional load outside a transaction");
  MemOp r;
  // A pending abort is observed only at accesses that leave this core: a
  // hit on a line still private to it touches no shared state, so the
  // doomed transaction runs through it (see pending_abort).
  if (tx.pending_abort && !private_hit(c, a)) {
    r.ok = false;
    return r;
  }
  const auto out = mem_.access(c, a, size, sim::AccessKind::Load, true, pc);
  r.latency = out.latency;
  ++stats_.core(c).tx_mem_ops;
  if (out.capacity_abort) {
    mark_capacity_abort(c, a);
    r.ok = false;
    return r;
  }
  r.value = read_through_wb(tx, a, size);
  return r;
}

HtmSystem::MemOp HtmSystem::store(CoreId c, Addr a, std::uint64_t v,
                                  unsigned size, std::uint32_t pc) {
  TxState& tx = tx_[c];
  ST_CHECK_MSG(tx.active, "transactional store outside a transaction");
  MemOp r;
  // Same boundary discipline as load(): private-line hits commute with the
  // pending abort (the write buffer and speculative marks are rolled back
  // wholesale when it lands).
  if (tx.pending_abort && !private_hit(c, a)) {
    r.ok = false;
    return r;
  }
  const auto out = lazy()
                       ? mem_.tx_store_lazy(c, a, size, pc)
                       : mem_.access(c, a, size, sim::AccessKind::Store, true, pc);
  r.latency = out.latency;
  ++stats_.core(c).tx_mem_ops;
  if (out.capacity_abort) {
    mark_capacity_abort(c, a);
    r.ok = false;
    return r;
  }
  write_to_wb(tx, a, v, size);
  return r;
}

HtmSystem::MemOp HtmSystem::plain_load(CoreId c, Addr a, unsigned size) {
  ST_CHECK_MSG(!tx_[c].active, "plain load inside a transaction");
  MemOp r;
  r.latency = mem_.access(c, a, size, sim::AccessKind::Load, false, 0).latency;
  r.value = heap_.load(a, size);
  return r;
}

HtmSystem::MemOp HtmSystem::plain_store(CoreId c, Addr a, std::uint64_t v,
                                        unsigned size, std::uint32_t pc) {
  ST_CHECK_MSG(!tx_[c].active, "plain store inside a transaction");
  MemOp r;
  r.latency = mem_.access(c, a, size, sim::AccessKind::Store, false, 0).latency;
  heap_.store(a, v, size);
  publish_stored_value(c, a, v, pc);
  return r;
}

namespace {
// Nontransactional accesses are cached like ordinary accesses (they simply
// never join the read/write set), so mixing them with transactional
// accesses to the same line inside one transaction would corrupt the
// speculative-data model. Workloads keep lock/map lines disjoint from data
// lines; this guard enforces it.
void check_not_own_speculative(sim::MemorySystem& mem, CoreId c, Addr a) {
  const sim::L1Line* l = mem.peek_l1(c, sim::line_addr(a));
  ST_CHECK_MSG(l == nullptr || !l->speculative(),
               "nontransactional access to a speculatively accessed line");
}
}  // namespace

HtmSystem::MemOp HtmSystem::nontx_load(CoreId c, Addr a, unsigned size) {
  check_not_own_speculative(mem_, c, a);
  MemOp r;
  const auto out = mem_.access(c, a, size, sim::AccessKind::Load, false, 0);
  r.latency = out.latency;
  if (out.capacity_abort) {
    // Filling the line would evict one of our own speculative lines: the
    // enclosing transaction overflows, exactly as a transactional fill would.
    mark_capacity_abort(c, a);
    r.ok = false;
    return r;
  }
  r.value = heap_.load(a, size);
  return r;
}

HtmSystem::MemOp HtmSystem::nontx_store(CoreId c, Addr a, std::uint64_t v,
                                        unsigned size) {
  check_not_own_speculative(mem_, c, a);
  MemOp r;
  const auto out = mem_.access(c, a, size, sim::AccessKind::Store, false, 0);
  r.latency = out.latency;
  if (out.capacity_abort) {
    mark_capacity_abort(c, a);
    r.ok = false;
    return r;
  }
  heap_.store(a, v, size);
  // Nontransactional stores take effect immediately — publish immediately.
  publish_stored_value(c, a, v, 0);
  return r;
}

HtmSystem::CasResult HtmSystem::nontx_cas(CoreId c, Addr a,
                                          std::uint64_t expect,
                                          std::uint64_t desired) {
  check_not_own_speculative(mem_, c, a);
  CasResult r;
  r.latency = mem_.access(c, a, 8, sim::AccessKind::Load, false, 0).latency;
  r.observed = heap_.load(a, 8);
  if (r.observed == expect) {
    r.latency += mem_.access(c, a, 8, sim::AccessKind::Store, false, 0).latency;
    heap_.store(a, desired, 8);
    publish_stored_value(c, a, desired, 0);
    r.success = true;
  }
  return r;
}

Addr HtmSystem::tx_alloc(CoreId c, std::size_t size, std::uint32_t pc) {
  const Addr a = heap_.alloc(c, size, 8, pc);
  if (tx_[c].active) tx_[c].allocs.push_back(a);
  return a;
}

void HtmSystem::tx_free(CoreId c, Addr a) {
  if (tx_[c].active)
    tx_[c].deferred_frees.push_back(a);
  else
    heap_.try_dealloc(a);
}

const std::vector<Addr>& HtmSystem::written_lines(CoreId c) {
  written_scratch_.clear();
  for (const auto& [chunk, wc] : tx_[c].wb) {
    (void)wc;
    written_scratch_.push_back(sim::line_addr(chunk << 3));
  }
  std::sort(written_scratch_.begin(), written_scratch_.end());
  written_scratch_.erase(
      std::unique(written_scratch_.begin(), written_scratch_.end()),
      written_scratch_.end());
  return written_scratch_;
}

std::size_t HtmSystem::write_buffer_bytes(CoreId c) const {
  std::size_t n = 0;
  for (const auto& [k, wc] : tx_[c].wb) {
    (void)k;
    n += static_cast<std::size_t>(std::popcount(wc.mask));
  }
  return n;
}

}  // namespace st::htm
