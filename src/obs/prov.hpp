// Conflict provenance (observability layer 3).
//
// Where the event trace (obs/trace.hpp) answers "what happened when", the
// provenance layer answers "who is to blame": every finalized abort gets a
// structured BlameRecord naming the victim (core, atomic block, first-touch
// PC), the aggressor (core, atomic block, access PC, execution tier), the
// conflicting line and that line's allocation site + privacy state, the
// retry count and the cycles the doomed attempt wasted. Every advisory-lock
// wait gets a LockEpisodeRecord carrying both transactions' speculative
// footprints so post-hoc analysis can classify each serialization as
// *conflict avoided* (footprints truly overlapped) or *false serialization*
// (disjoint — pure cost): the paper's effectiveness claim made measurable
// per lock.
//
// Like tracing, provenance is strictly an observer: no sink is allocated
// unless STAGTM_PROF is set and every emission site is null-guarded, so
// simulated results are byte-identical with provenance on and off
// (CI-enforced).
//
// Knobs (exit 2 on malformed values, like every STAGTM_* knob):
//   STAGTM_PROF=<path>           enable provenance; binary output for the
//                                `stagtm-prof` CLI (and stagtm-trace --prof)
//   STAGTM_PROF_CAP=<n>          per-core ring capacity (default 65536)
//   STAGTM_PROF_FOOTPRINT=<n>    max lines kept per footprint (default 64;
//                                larger footprints set the truncated flag)
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "sim/types.hpp"

namespace st::obs {

// BlameRecord::flags bits.
inline constexpr std::uint8_t kBlamePcTagValid = 1u << 0;
inline constexpr std::uint8_t kBlameWillGlock = 1u << 1;   // retry budget spent
inline constexpr std::uint8_t kBlameAggressorIrrev = 1u << 2;
inline constexpr std::uint8_t kBlameLinePrivate = 1u << 3;
inline constexpr std::uint8_t kBlameFpTruncated = 1u << 4;
inline constexpr std::uint8_t kBlameHasAggressor = 1u << 5;
inline constexpr std::uint8_t kBlameTierStm = 1u << 6;  // STM-tier attempt

/// One finalized abort, attributed. Fixed-size POD: written verbatim into
/// the binary prof file (byte order is host order, like the trace format).
struct BlameRecord {
  sim::Cycle at = 0;                // abort-finalization cycle
  std::uint64_t line = 0;           // conflicting (or overflowing) line
  std::uint64_t wasted_cycles = 0;  // cycles the doomed attempt burned
  std::uint32_t victim_pc = 0;      // first speculative access to `line`
  std::uint32_t aggressor_pc = 0;   // access PC of the conflicting request
  std::uint32_t alloc_site = 0;     // allocation-site PC of `line`'s block
  std::uint16_t victim_ab = 0;
  std::uint16_t aggressor_ab = 0;   // valid iff kBlameHasAggressor
  std::uint16_t pc_tag = 0;         // hardware view (valid per flags)
  std::uint8_t cause = 0;           // htm::AbortCause
  std::uint8_t victim_core = 0;
  std::uint8_t aggressor_core = 0;  // == victim_core on capacity self-abort
  std::uint8_t retry = 0;           // 1-based attempt number, saturated at 255
  std::uint8_t flags = 0;
  std::uint8_t priv_owner = 0xFF;   // owning core of a still-private line
};
static_assert(sizeof(BlameRecord) == 48, "binary prof format relies on this");

enum class LockOutcome : std::uint8_t {
  kWaiting = 0,        // attempt ended while still spinning
  kAcquired,           // lock obtained after waiting
  kTimeout,            // gave up and ran unprotected (§2)
  kAbortedWaiting,     // transaction died during the spin
};
const char* lock_outcome_name(LockOutcome o);

enum class LockClass : std::uint8_t {
  kConflictAvoided = 0,    // waiter and holder footprints overlapped
  kFalseSerialization,     // footprints disjoint: the wait was pure cost
  kIndeterminate,          // a footprint was missing or truncated
};
const char* lock_class_name(LockClass c);

// LockEpisodeRecord::flags bits.
inline constexpr std::uint16_t kEpisodeFpTruncated = 1u << 0;
inline constexpr std::uint16_t kEpisodeHolderFpValid = 1u << 1;
inline constexpr std::uint16_t kEpisodeHolderIrrev = 1u << 2;

/// One advisory-lock wait, counterfactually classified at the end of the
/// waiter's attempt (when both footprints are known).
struct LockEpisodeRecord {
  sim::Cycle wait_start = 0;
  std::uint64_t wait_cycles = 0;    // spin duration (resolution - start)
  std::uint64_t data_line = 0;      // line that hashed to the lock
  std::uint64_t overlap_line = 0;   // sample overlapping line (0 = none)
  std::uint32_t lock_idx = 0;
  std::uint16_t waiter_ab = 0;
  std::uint16_t holder_ab = 0;      // valid iff kEpisodeHolderFpValid
  std::uint8_t waiter_core = 0;
  std::uint8_t holder_core = 0;
  std::uint8_t outcome = 0;         // LockOutcome
  std::uint8_t classification = 0;  // LockClass
  std::uint16_t overlap_lines = 0;
  std::uint16_t flags = 0;
};
static_assert(sizeof(LockEpisodeRecord) == 48,
              "binary prof format relies on this");

struct ProvConfig {
  std::string path;                     // empty = provenance disabled
  std::size_t cap_per_core = 1u << 16;  // STAGTM_PROF_CAP
  std::size_t footprint_lines = 64;     // STAGTM_PROF_FOOTPRINT

  bool enabled() const { return !path.empty(); }

  /// Reads STAGTM_PROF / STAGTM_PROF_CAP / STAGTM_PROF_FOOTPRINT; exits 2
  /// on malformed values. Parsed fresh on each call (no latch) so tests
  /// can exercise the validation.
  static ProvConfig from_env();
};

/// Collects blame records and lock episodes into bounded per-core rings
/// (newest records displace the oldest, trace-style). All hook methods are
/// called from event-loop steps in deterministic (clock, id) order, so ring
/// contents reproduce bit-for-bit for a (config, seed).
class ProvSink {
 public:
  ProvSink(unsigned cores, std::size_t cap_per_core,
           std::size_t footprint_lines);

  unsigned cores() const { return static_cast<unsigned>(percore_.size()); }
  std::size_t capacity() const { return cap_; }
  std::size_t footprint_cap() const { return fp_cap_; }

  // ---- executor lifecycle (runtime/tx_executor.cpp) ----
  void on_attempt_begin(sim::CoreId c, unsigned ab_id, unsigned attempt);
  void on_irrev_begin(sim::CoreId c, unsigned ab_id);
  /// Attempt committed (speculatively or irrevocably): publishes the
  /// captured footprint to waiters and resolves this core's own episode.
  void on_attempt_commit(sim::CoreId c, sim::Cycle at);
  /// Attempt aborted: finalizes the pending blame into a BlameRecord, then
  /// does the same footprint/episode bookkeeping as a commit.
  void on_attempt_abort(sim::CoreId c, unsigned attempts, sim::Cycle wasted,
                        bool will_glock, sim::Cycle at);

  // ---- HTM hooks (htm/htm.cpp) ----
  /// First conflict stamp of the victim's attempt (mirrors the
  /// pending_abort guard). Aggressor context (block, tier) is sampled NOW —
  /// it can rot before the victim notices the stamp.
  void on_conflict_stamp(sim::CoreId victim, sim::Addr line,
                         sim::CoreId requester, std::uint32_t requester_pc);
  /// Capacity overflow: the victim is its own aggressor.
  void on_capacity_stamp(sim::CoreId c, sim::Addr line);
  /// Stores the attempt's speculative footprint (line addresses, reads and
  /// writes). Must run before the HTM clears speculative state; keeps the
  /// FIRST capture per attempt (capacity aborts capture early because their
  /// spec state is cleared at stamp time, before abort finalization).
  void capture_footprint(sim::CoreId c, const std::vector<sim::Addr>& lines);
  bool footprint_captured(sim::CoreId c) const {
    return percore_[c].fp_captured;
  }
  /// Abort finalization (HtmSystem::abort): merges the hardware-reported
  /// info and the heap/privacy attribution into the pending blame. The
  /// executor's on_attempt_abort() closes the record with retry/cost data.
  /// `stm_tier` marks an STM-tier attempt (executor-raised causes; sets
  /// kBlameTierStm so stagtm-prof can split blame per execution tier).
  void on_abort_finalize(sim::CoreId c, std::uint8_t cause, sim::Addr line,
                         bool pc_tag_valid, std::uint16_t pc_tag,
                         std::uint32_t first_pc, std::uint32_t alloc_site,
                         int priv_owner, sim::Cycle at,
                         bool stm_tier = false);

  // ---- advisory-lock hooks (stagger/advisory_locks.cpp) ----
  /// First failed CAS opens a wait episode against the observed holder
  /// (subsequent spins extend it). `holder` < 0 means unknown.
  void on_lock_wait(sim::CoreId waiter, unsigned lock_idx, sim::Addr data_line,
                    int holder, sim::Cycle at);
  void on_lock_acquired(sim::CoreId c, sim::Cycle at);
  void on_lock_timeout(sim::CoreId c, sim::Cycle at);
  void on_lock_wait_aborted(sim::CoreId c, sim::Cycle at);

  // ---- introspection / export ----
  std::uint64_t blame_emitted(sim::CoreId c) const {
    return percore_[c].blame_emitted;
  }
  std::uint64_t blame_dropped(sim::CoreId c) const;
  std::uint64_t episodes_emitted(sim::CoreId c) const {
    return percore_[c].ep_emitted;
  }
  std::uint64_t episodes_dropped(sim::CoreId c) const;
  std::uint64_t total_blame() const;
  std::uint64_t total_dropped() const;

  /// Surviving records of core c, oldest first.
  std::vector<BlameRecord> blames(sim::CoreId c) const;
  std::vector<LockEpisodeRecord> episodes(sim::CoreId c) const;

 private:
  struct Episode {                 // an open (unresolved) lock wait
    bool open = false;
    LockEpisodeRecord rec;
    sim::CoreId holder = 0;
    std::uint64_t holder_gen = 0;  // holder's attempt generation at open
    std::vector<sim::Addr> holder_fp;
    bool holder_fp_valid = false;
    bool holder_fp_truncated = false;
    bool holder_irrev = false;
  };
  struct PendingBlame {            // stamp-time aggressor context
    bool stamped = false;
    sim::CoreId aggressor = 0;
    std::uint32_t aggressor_pc = 0;
    std::uint16_t aggressor_ab = 0;
    bool aggressor_irrev = false;
    bool self = false;             // capacity: victim == aggressor
  };
  struct PerCore {
    // Current-attempt context (sampled by stamps against this core).
    std::uint16_t ab_id = 0;
    std::uint8_t attempt = 0;
    bool irrev = false;
    std::uint64_t gen = 0;  // bumped at every attempt begin
    // Pending state for the attempt in flight.
    PendingBlame pending;
    bool finalized = false;        // on_abort_finalize ran for this attempt
    BlameRecord finalize;          // partially filled blame
    std::vector<sim::Addr> fp;     // captured footprint (bounded)
    bool fp_captured = false;
    bool fp_truncated = false;
    Episode episode;               // at most one lock wait per core
    // Rings.
    std::vector<BlameRecord> blame_ring;
    std::uint64_t blame_emitted = 0;
    std::vector<LockEpisodeRecord> ep_ring;
    std::uint64_t ep_emitted = 0;
  };

  void push_blame(sim::CoreId c, const BlameRecord& r);
  void push_episode(sim::CoreId c, const LockEpisodeRecord& r);
  /// Commit/abort epilogue shared by both attempt-end paths.
  void attempt_end(sim::CoreId c, sim::Cycle at);
  void resolve_episode(PerCore& pc, sim::Cycle at);

  std::vector<PerCore> percore_;
  std::size_t cap_;
  std::size_t fp_cap_;
  std::vector<sim::Addr> overlap_scratch_;
};

// ---------------------------------------------------------------------------
// Export / import (binary format "STGPRF01") and post-hoc analysis.
// ---------------------------------------------------------------------------

struct CoreProv {
  std::uint64_t blame_emitted = 0;    // includes dropped
  std::uint64_t episodes_emitted = 0;
  std::vector<BlameRecord> blames;            // surviving, oldest first
  std::vector<LockEpisodeRecord> episodes;    // surviving, oldest first
};

struct ProvData {
  std::uint64_t cap_per_core = 0;
  std::vector<CoreProv> per_core;

  unsigned cores() const { return static_cast<unsigned>(per_core.size()); }
  std::uint64_t blame_dropped() const;
  std::uint64_t episodes_dropped() const;
};

/// Copies the sink's surviving records out of the rings.
ProvData snapshot(const ProvSink& sink);

void write_binary_prov(const ProvData& d, std::FILE* f);
/// Reads a binary prof file; returns false and sets *err when malformed.
bool read_binary_prov(std::FILE* f, ProvData* out, std::string* err);
/// Writes the sink to `path`. Returns false and sets *err on I/O failure.
bool export_prov(const ProvSink& sink, const std::string& path,
                 std::string* err);
bool read_prov_file(const std::string& path, ProvData* out, std::string* err);

/// Conflict graph: nodes are (allocation site, access PC) pairs — the
/// static identity of "code X touching data born at Y" — and a directed
/// edge aggressor -> victim aggregates every blame record between the two
/// with its total abort count and wasted cycles.
struct ConflictGraph {
  struct Node {
    std::uint32_t alloc_site = 0;
    std::uint32_t pc = 0;
    std::uint64_t aborts_as_victim = 0;
    std::uint64_t aborts_as_aggressor = 0;
    std::uint64_t wasted_cycles = 0;  // as victim
  };
  struct Edge {
    std::uint32_t src = 0;  // aggressor node index
    std::uint32_t dst = 0;  // victim node index
    std::uint64_t aborts = 0;
    std::uint64_t wasted_cycles = 0;
  };
  std::vector<Node> nodes;
  std::vector<Edge> edges;  // sorted by wasted_cycles, descending
};
ConflictGraph build_conflict_graph(const ProvData& d);

/// Per-lock counterfactual effectiveness (classified episodes only).
struct LockEffectiveness {
  std::uint32_t lock_idx = 0;
  std::uint64_t episodes = 0;
  std::uint64_t conflict_avoided = 0;
  std::uint64_t false_serialization = 0;
  std::uint64_t indeterminate = 0;
  std::uint64_t avoided_wait_cycles = 0;  // spent on real conflicts
  std::uint64_t false_wait_cycles = 0;    // pure cost
};
std::vector<LockEffectiveness> lock_effectiveness(const ProvData& d);

/// Aggregate summary for STAGTM_JSON (all host/observer-side fields: the
/// observer-invariance CI job strips them before differential comparison).
struct ProvSummary {
  std::uint64_t blame_records = 0;
  std::uint64_t blame_dropped = 0;
  std::uint64_t lock_episodes = 0;
  std::uint64_t episodes_dropped = 0;
  std::uint64_t conflict_avoided = 0;
  std::uint64_t false_serialization = 0;
  std::uint64_t indeterminate = 0;
  std::uint64_t avoided_wait_cycles = 0;
  std::uint64_t false_wait_cycles = 0;
  std::uint64_t stm_blames = 0;  // surviving records with kBlameTierStm
  unsigned graph_nodes = 0;
  unsigned graph_edges = 0;
};
ProvSummary summarize_prov(const ProvData& d);

/// JSON fragment "{...}" with the summary fields (bench_common embeds it
/// under the excluded "prov" key).
void write_prov_summary_json(std::FILE* f, const ProvSummary& s);

}  // namespace st::obs
