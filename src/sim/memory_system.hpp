// Coherent memory hierarchy with eager requester-wins conflict detection.
//
// Models the machine of Table 2 in the paper: per-core L1 (2 cycles),
// private L2 (10), shared L3 (30), memory (125 @ 2.5 GHz), MOESI-style
// directory coherence, two transactional bits and a 12-bit conflicting-PC
// tag per L1 line.
//
// Conflicts are detected when a coherence request reaches a remote L1 whose
// copy of the line is speculative: the requester always wins and the victim
// transaction is aborted through the ConflictSink (implemented by the HTM
// layer, which records abort info and clears the victim's speculative
// state).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "obs/trace.hpp"
#include "sim/cache.hpp"
#include "sim/dir_map.hpp"
#include "sim/privacy.hpp"
#include "sim/stats.hpp"
#include "sim/types.hpp"

namespace st::sim {

struct MemConfig {
  unsigned cores = 16;
  CacheGeometry l1{64 * 1024, 8};
  CacheGeometry l2{1024 * 1024, 8};
  CacheGeometry l3{8 * 1024 * 1024, 8};
  Cycle l1_lat = 2;
  Cycle l2_lat = 10;
  Cycle l3_lat = 30;
  Cycle mem_lat = 125;   // 50 ns at 2.5 GHz
  Cycle fwd_lat = 30;    // cache-to-cache forward via the directory
  Cycle dir_lat = 30;    // directory/upgrade round trip
  unsigned pc_tag_bits = 12;
  /// Lazy conflict detection (paper §8 future work): transactional accesses
  /// never abort remote transactions during execution; conflicts fire at
  /// commit time via publish_line (committer wins). Nontransactional and
  /// plain accesses stay eager — they act on committed state immediately.
  bool lazy_conflicts = false;
};

enum class AccessKind : std::uint8_t { Load, Store };

/// Callback interface implemented by the HTM layer.
class ConflictSink {
 public:
  virtual ~ConflictSink() = default;

  /// A coherence request from `requester` conflicted with speculative state
  /// in `victim`'s L1. The sink must abort the victim transaction (it is
  /// expected to call MemorySystem::clear_speculative(victim, true)).
  /// `requester_pc` is the aggressor access's program counter (0 when the
  /// conflict fires outside an instruction, e.g. lazy commit publication).
  virtual void on_conflict_abort(CoreId victim, Addr line, bool pc_valid,
                                 std::uint16_t pc_tag, std::uint32_t first_pc,
                                 CoreId requester,
                                 std::uint32_t requester_pc) = 0;
};

struct AccessOutcome {
  Cycle latency = 0;
  /// The requesting core's own transaction had to abort because a
  /// speculative line would have been evicted (capacity).
  bool capacity_abort = false;
};

class MemorySystem : public LineEscapeSink {
 public:
  MemorySystem(const MemConfig& cfg, MachineStats& stats);

  void set_conflict_sink(ConflictSink* sink) { sink_ = sink; }

  /// Wire the per-line privacy map (null = no tracking, the standalone-test
  /// configuration). The map is an observer: it feeds the priv_* counters
  /// and kLineEscape events but never changes a coherence action. The map
  /// must be registered as this object's escape sink by the owner.
  void set_privacy(PrivacyMap* priv) { priv_ = priv; }
  const PrivacyMap* privacy() const { return priv_; }
  void set_trace(obs::TraceSink* trace) { trace_ = trace; }
  void set_clock(std::function<Cycle()> clock) { clock_ = std::move(clock); }

  /// True when a privacy map is wired. Read by nothing in the simulator;
  /// kept because the benchmark harness (perfbench/) still calls it.
  bool private_classification() const { return priv_ != nullptr; }

  /// LineEscapeSink: a line just went private->shared. Counts the escape
  /// and emits the kLineEscape trace event.
  void on_line_escape(CoreId publisher, Addr line, CoreId owner,
                      std::uint32_t pc) override;

  /// Cached access by core `c`. When `transactional` is set, the touched
  /// line joins the core's read/write set and (on its first speculative
  /// access) records `pc`. The access must not cross a cache line.
  AccessOutcome access(CoreId c, Addr addr, unsigned size, AccessKind kind,
                       bool transactional, std::uint32_t pc);

  /// Lazy-HTM transactional store (future-work §8 of the paper): fetches
  /// the line like a load (remote copies survive; no conflicts fire) and
  /// marks it speculatively written locally. Conflict detection is deferred
  /// to publish_line() at commit.
  AccessOutcome tx_store_lazy(CoreId c, Addr addr, unsigned size,
                              std::uint32_t pc);

  /// Commit-time publication of one speculatively written line under lazy
  /// conflict detection: aborts remote transactions holding the line
  /// speculatively (committer wins), invalidates every other copy, and
  /// upgrades the committer's copy to Modified. Returns the latency.
  Cycle publish_line(CoreId c, Addr line);

  /// Line addresses currently marked tx_write in core c's L1, in tag-array
  /// (set-major) order. Clears `out` and fills it; commit paths call this
  /// once per transaction with a reusable scratch buffer. Walks the
  /// speculative-line log (O(footprint)), which it sorts in place — hence
  /// non-const — but simulated state is untouched.
  void speculative_written_lines(CoreId c, std::vector<Addr>& out);

  /// Line addresses of core c's whole speculative footprint (reads and
  /// writes), in tag-array order. Same contract and cost as
  /// speculative_written_lines; provenance captures footprints with it.
  void speculative_line_addrs(CoreId c, std::vector<Addr>& out);

  /// Ends speculation for core c. With `invalidate_written`, speculatively
  /// written lines are dropped (abort); otherwise they stay valid (commit).
  /// O(footprint): walks the speculative-line log, not the whole L1.
  void clear_speculative(CoreId c, bool invalidate_written);

  /// Cross-core abort stamp (requester-wins): invalidates the victim's
  /// speculatively WRITTEN *shared* lines so the requester's access misses
  /// the stale copy, but leaves the speculative marks, the log (and hence
  /// the footprint high-water mark), and every line still private to the
  /// victim untouched. No requester can name a private line, and the
  /// victim keeps retiring hits on them until it observes the abort
  /// (HtmSystem::load/store); its own abort() does the full drain.
  void invalidate_speculative_writes(CoreId c);

  /// Number of speculative lines currently held by core c. O(1).
  unsigned speculative_lines(CoreId c) const;

  const MemConfig& config() const { return cfg_; }

  // --- introspection for tests ---
  const L1Line* peek_l1(CoreId c, Addr line) const { return l1_[c]->find(line); }
  /// Read-only view of a core's L1, for brute-force differential sweeps.
  const L1Cache& peek_l1_cache(CoreId c) const { return *l1_[c]; }
  SharerMask dir_sharers(Addr line) const;
  int dir_owner(Addr line) const;
  /// Aborts the process if a directory/L1 consistency invariant is broken.
  void check_invariants() const;

 private:
  struct DirEntry {
    SharerMask sharers;
    int owner = -1;
  };

  /// Checks a remote core's copy for a transactional conflict with a request
  /// of `kind`; aborts the remote transaction if so. Returns true when a
  /// conflict was found.
  bool conflict_check(CoreId remote, Addr line, AccessKind kind,
                      CoreId requester, std::uint32_t requester_pc);

  /// Invalidates `line` in `remote`'s L1 and in the directory entry `d`;
  /// the caller erases the entry when its sharer set empties.
  void invalidate_remote(CoreId remote, Addr line, DirEntry& d);

  /// Removes core c's copy of `line` from the directory bookkeeping.
  void dir_drop(CoreId c, Addr line);

  /// Directory lookup on behalf of core c, counted in its dir_probes stat.
  DirEntry* dir_probe(CoreId c, Addr line) {
    ++stats_.core(c).dir_probes;
    return dir_.find(line);
  }

  Cycle fill_latency(CoreId c, Addr line);

  MemConfig cfg_;
  MachineStats& stats_;
  ConflictSink* sink_ = nullptr;
  PrivacyMap* priv_ = nullptr;
  obs::TraceSink* trace_ = nullptr;
  std::function<Cycle()> clock_;
  std::vector<std::unique_ptr<L1Cache>> l1_;
  std::vector<std::unique_ptr<TagCache>> l2_;
  TagCache l3_;
  LineMap<DirEntry> dir_;
};

}  // namespace st::sim
