// Schedule perturbation policies for the correctness checker.
//
// The default simulator schedule is fully deterministic (smallest clock,
// ties by core id), so every configuration explores exactly one
// interleaving. The policies here plug into sim::Machine::set_perturb to
// search *other* interleavings while staying bit-reproducible from
// (mode, seed):
//
//   * kPct    — PCT-style randomized priorities: among runnable cores whose
//     clocks lie within a bounded skew band of the minimum, the highest
//     (seeded, random) priority core steps next; the running core's
//     priority is occasionally demoted so dominance changes over the run.
//     The skew band guarantees progress — a spinning high-priority core
//     eventually drifts out of the band and its victim gets to run.
//   * kJitter — delay injection: the default clock order is kept, but
//     before a step the chosen core's clock may be bumped by a bounded,
//     seeded random delay. Injection can be confined to a cycle window
//     [lo, hi), which is what the failure reducer bisects.
//
// Environment knobs (strictly validated through common/env, exit 2 on bad
// values; all ignored unless STAGTM_SCHED_MODE is set):
//   STAGTM_SCHED_MODE   — "pct" | "jitter" (unset/empty = off)
//   STAGTM_SCHED_SEED   — perturbation seed (default 1)
//   STAGTM_SCHED_JITTER — max injected delay per injection (default 64)
//   STAGTM_SCHED_PERIOD — mean steps between injections (default 8)
//   STAGTM_SCHED_WINDOW — "lo:hi" injection cycle window (default all)
//   STAGTM_SCHED_DEPTH  — pct demotion weight, p = depth/65536 (default 3)
//   STAGTM_SCHED_SKEW   — pct clock-skew band in cycles (default 4096)
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "sim/machine.hpp"

namespace st::check {

enum class SchedMode : std::uint8_t { kNone, kPct, kJitter };

const char* sched_mode_name(SchedMode m);

/// "pct" or "jitter" (the STAGTM_SCHED_MODE and `stagtm check --mode`
/// spellings); anything else exits 2 naming `name`.
SchedMode parse_sched_mode(const char* name, const char* value);

struct SchedConfig {
  SchedMode mode = SchedMode::kNone;
  std::uint64_t seed = 1;
  sim::Cycle jitter = 64;        // max cycles injected per injection
  std::uint64_t period = 8;      // mean steps between injections
  sim::Cycle window_lo = 0;      // injection window [lo, hi)
  sim::Cycle window_hi = ~sim::Cycle{0};
  unsigned depth = 3;            // pct: demotion probability = depth/65536
  sim::Cycle skew = 4096;        // pct: max clock skew band

  bool enabled() const { return mode != SchedMode::kNone; }

  /// Reads the STAGTM_SCHED_* knobs; exits 2 on malformed values. Parsed
  /// fresh on each call (no latch) so tests can exercise the validation.
  static SchedConfig from_env();

  /// Sets the injection window from "lo:hi" (cycles, lo < hi); anything
  /// else exits 2 naming `name` (STAGTM_SCHED_WINDOW or --window).
  void parse_window(const char* name, const char* spec);

  /// Human/CLI form, e.g. "jitter seed=7 amp=64 period=8 window=0:4096".
  /// "off" when disabled. Stable: reruns of the same config print the same.
  std::string describe() const;
};

/// Builds the perturbation policy for `cfg`; null when cfg.mode == kNone.
/// The returned object must outlive the Machine::run it is installed for.
std::unique_ptr<sim::SchedPerturb> make_perturb(const SchedConfig& cfg);

}  // namespace st::check
