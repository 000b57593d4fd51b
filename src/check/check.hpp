// One checked probe = one perturbed run + invariants + serializability
// oracle. `stagtm check` and the failure reducer both go through this entry
// point, so "fails" means the same thing everywhere.
#pragma once

#include <cstdint>
#include <string>

#include "check/oracle.hpp"
#include "check/scheduler.hpp"
#include "workloads/harness.hpp"

namespace st::check {

struct Verdict {
  bool ok = false;
  /// Which stage failed: "" | "invariant" | "oracle".
  std::string stage;
  /// Human-readable first failure ("" when ok).
  std::string failure;
  SchedConfig sched;            // the perturbation this probe ran under
  std::uint64_t commits = 0;    // committed transactions in the checked run
  sim::Cycle cycles = 0;        // checked run's simulated duration
  std::uint64_t state_digest = 0;
};

/// Runs `workload` once under `sched` (checked mode), then validates
/// invariants and replays the commit log through the serializability
/// oracle. `base.checked`/`base.sched` are overridden; every other option
/// (scheme, threads, seed, lazy_htm, max_retries, ...) is probed as given —
/// including the unsafe_skip_subscription backdoor, which is how the tests
/// prove a broken runtime is caught.
Verdict check_once(const std::string& workload,
                   const workloads::RunOptions& base,
                   const SchedConfig& sched);

}  // namespace st::check
