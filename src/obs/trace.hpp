// Event tracing for the simulator (observability layer 1).
//
// A TraceSink owns one fixed-capacity ring buffer per simulated core and
// records typed events stamped with the simulated cycle at which they
// happened: transaction lifecycle (begin / commit / abort with cause,
// conflicting line and PC tag), ALPoint firings, advisory-lock critical
// sections, locking-policy classifications, irrevocable entries, and
// backoff intervals.
//
// Tracing is strictly an observer: every emission site is guarded by a
// null check on the sink pointer (no sink is allocated unless STAGTM_TRACE
// is set), emit() only reads simulator state, and CI enforces that bench
// stdout is byte-identical with tracing on and off. When a ring wraps, the
// newest events win and the drop count is reported by the exporters.
//
// Knobs (all exit 2 on malformed values, like every STAGTM_* knob):
//   STAGTM_TRACE=<path>         enable tracing; ".json" writes a Chrome
//                               trace_event file (Perfetto-compatible),
//                               any other suffix the compact binary format
//   STAGTM_TRACE_CAP=<n>        per-core ring capacity (default 65536)
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/types.hpp"

namespace st::obs {

/// Execution tier of a transaction attempt (runtime/tx_executor.hpp). The
/// values are the on-disk encoding of kTxBegin/kTxCommit arg8 and of
/// runtime::CommitRecord::tier.
enum class Tier : std::uint8_t {
  kHtm = 0,          // hardware transaction
  kIrrevocable = 1,  // serial execution under the global lock
  kStm = 2,          // TL2 software transaction (src/stm)
};

enum class EventKind : std::uint8_t {
  kTxBegin = 0,     // a32 = atomic block id, a64 = attempt number (1-based),
                    // arg8 = Tier (kHtm or kStm; irrevocable executions
                    // emit kIrrevocable instead)
  kTxCommit,        // a32 = ab id, a64 = attempts used (the irrevocable
                    // execution counts as one), arg8 = committing Tier
  kTxAbort,         // arg8 = htm::AbortCause, pc_tag = hw tag (when valid),
                    // a32 = aborter core + 1 (0 = self/none), a64 = line
  kAlpFired,        // a32 = ALP id, a64 = target line the lock protects
  kLockAcquire,     // a32 = lock index, a64 = data line that hashed to it
  kLockRelease,     // a32 = lock index, a64 = hold duration in cycles
  kLockTimeout,     // a32 = lock index, a64 = cycles spent waiting
  kPolicyDecision,  // arg8 = stagger::PolicyDecision, a32 = anchor ALP,
                    // a64 = conflicting line
  kIrrevocable,     // a32 = ab id, a64 = speculative attempts before it
                    // (global-lock serial execution begins)
  kBackoff,         // a32 = attempt number, a64 = delay in cycles
  kCoreDone,        // the core's task finished (timeline end marker)
  kLineEscape,      // a line left its arena's private domain: arg8 = owner
                    // core, a32 = publishing PC (0 = commit/host channel),
                    // a64 = line address; emitted on the publisher's ring
  kCount_,
};

inline constexpr unsigned kNumEventKinds =
    static_cast<unsigned>(EventKind::kCount_);

/// Stable lowercase name, e.g. "tx_begin"; used by exporters and the CLI.
const char* event_kind_name(EventKind k);

struct TraceEvent {
  sim::Cycle at = 0;  // simulated cycle
  EventKind kind = EventKind::kTxBegin;
  std::uint8_t arg8 = 0;
  std::uint16_t pc_tag = 0;
  std::uint32_t a32 = 0;
  std::uint64_t a64 = 0;
};
static_assert(sizeof(TraceEvent) == 24, "binary trace format relies on this");

struct TraceConfig {
  std::string path;                    // empty = tracing disabled
  std::size_t cap_per_core = 1u << 16; // STAGTM_TRACE_CAP

  bool enabled() const { return !path.empty(); }

  /// Reads STAGTM_TRACE / STAGTM_TRACE_CAP; exits 2 on malformed values.
  /// Parsed fresh on each call (no latch) so tests can exercise the
  /// validation.
  static TraceConfig from_env();
};

/// "out.json" + id 3 -> "out.3.json"; used by the experiment runner so
/// concurrent jobs under one STAGTM_TRACE setting never clobber each other.
std::string uniquify_trace_path(const std::string& path, std::size_t job);

class TraceSink {
 public:
  TraceSink(unsigned cores, std::size_t cap_per_core);

  unsigned cores() const { return static_cast<unsigned>(rings_.size()); }
  std::size_t capacity() const { return cap_; }

  /// Records `e` in core c's ring (newest events displace the oldest).
  /// Hot-path shape: one modulo store, one increment.
  void emit(sim::CoreId c, const TraceEvent& e) {
    Ring& r = rings_[c];
    r.ev[static_cast<std::size_t>(r.emitted % cap_)] = e;
    ++r.emitted;
  }

  /// Events emitted on core c over the whole run (including dropped ones).
  std::uint64_t emitted(sim::CoreId c) const { return rings_[c].emitted; }
  /// Events still in the ring (= min(emitted, capacity)).
  std::uint64_t stored(sim::CoreId c) const;
  /// Events that wrapped out of the ring.
  std::uint64_t dropped(sim::CoreId c) const {
    return emitted(c) - stored(c);
  }
  std::uint64_t total_dropped() const;

  /// The surviving events of core c, oldest first.
  std::vector<TraceEvent> chronological(sim::CoreId c) const;

 private:
  struct Ring {
    std::vector<TraceEvent> ev;
    std::uint64_t emitted = 0;
  };
  std::vector<Ring> rings_;
  std::size_t cap_;
};

}  // namespace st::obs
