// Deterministic discrete-event multicore scheduler.
//
// Each simulated core owns a logical clock and a CoreTask (a resumable state
// machine). The machine repeatedly advances the runnable core with the
// smallest clock (ties broken by core id), so a given configuration and seed
// always produces a bit-identical execution, independent of the host. The
// loop keeps one entry per running core in a binary min-heap, packed into
// one 64-bit word as `clock << 8 | id` (so core clocks must stay below 2^56;
// kMaxCores fits the 8 id bits): the top core steps in place and one
// replace-top sift-down re-keys it. It runs on the calling host thread;
// parallelism across simulations comes from running several machines at
// once (workloads/runner.hpp).
#pragma once

#include <memory>
#include <vector>

#include "sim/types.hpp"

namespace st::obs {
class TraceSink;
}

namespace st::sim {

class Machine;

/// Schedule-perturbation hook for correctness checking (implementations in
/// src/check/scheduler.hpp). When installed, Machine::run() switches from
/// the default smallest-(clock, id) pop to a hook-driven loop: the hook
/// chooses which runnable core steps next and may inject bounded idle
/// delays before a step. Implementations must be deterministic functions of
/// their seed so a perturbed execution is reproducible bit-for-bit. The
/// default path (no hook) is untouched.
class SchedPerturb {
 public:
  virtual ~SchedPerturb() = default;

  /// Chooses the next core to step. `runnable` is non-empty and sorted by
  /// core id; every listed core has a live task. Must return an element of
  /// `runnable`. The default schedule would pick the smallest (clock, id).
  virtual CoreId pick(const Machine& m, const std::vector<CoreId>& runnable) = 0;

  /// Extra idle cycles injected before the chosen core's step (0 = none).
  /// Called once per step, after pick(), with the core's current clock.
  virtual Cycle delay(CoreId core, Cycle clock) = 0;
};

/// A resumable unit of work bound to one core. step() performs a bounded
/// amount of work and returns the number of cycles it consumed (>= 1).
/// A step may retire more than one instruction (a fused run), but it must
/// consume no more than Machine::fuse_budget() cycles beyond its first
/// instruction's start — that is the window within which no other core has
/// a scheduler event, so fusing inside it cannot change the interleaving.
///
/// While run() is running, done() may change only inside the task's own
/// step(): another core's step must not finish or revive it. run() relies
/// on this to call done() once per step, right after the step, and never
/// for the other cores' entries.
class CoreTask {
 public:
  virtual ~CoreTask() = default;
  virtual Cycle step(Machine& m, CoreId core) = 0;
  virtual bool done() const = 0;
};

class Machine {
 public:
  explicit Machine(unsigned cores);

  unsigned cores() const { return static_cast<unsigned>(cores_.size()); }

  /// Installs the task for `core` and resets that core's clock to the
  /// current global time (so late-installed tasks do not run in the past).
  void set_task(CoreId core, std::unique_ptr<CoreTask> task);

  /// Runs until every task reports done() or `max_cycles` of global time
  /// elapse. Returns the final global time (max over core clocks that ran).
  /// Without a perturbation hook, a running core whose clock reaches 2^56
  /// stops the run on an ST_CHECK (the scheduler key has no room for it).
  Cycle run(Cycle max_cycles = ~Cycle{0});

  Cycle core_clock(CoreId core) const { return cores_[core].clock; }

  /// True when every installed task reports done() (a bounded run() that
  /// stopped at max_cycles leaves this false).
  bool all_done() const {
    for (const auto& c : cores_)
      if (c.task && !c.task->done()) return false;
    return true;
  }

  /// Global time: the minimum clock over still-running cores, or the max
  /// over all cores once everything finished.
  Cycle now() const;

  /// Adds idle time to a core (e.g., modeling an OS-level sleep).
  void advance_clock(CoreId core, Cycle cycles) { cores_[core].clock += cycles; }

  /// Valid during a CoreTask::step() call: the number of cycles the stepping
  /// core may consume in this step while still being popped before every
  /// other core's next event (ties broken by core id, exactly as run()
  /// breaks them). Always >= 1. A task that consumes at most this many
  /// cycles per step produces a bit-identical execution to a task that
  /// single-steps, because no other core can observe the difference.
  Cycle fuse_budget() const { return fuse_budget_; }

  /// Disables (or re-enables) multi-instruction fusion hints: with fusion
  /// off, fuse_budget() is pinned to 1 and every step retires at most one
  /// instruction. On by default (default_step_fusion).
  void set_step_fusion(bool on) { fusion_ = on; }
  bool step_fusion() const { return fusion_; }

  /// Fusion is on unless a caller asks for a single-stepped reference run.
  static constexpr bool default_step_fusion() { return true; }

  /// Optional event sink (see obs/trace.hpp): the scheduler stamps a
  /// core_done event when a task finishes, giving exported timelines an
  /// end marker per core. Null (the default) means no tracing.
  void set_trace(obs::TraceSink* trace) { trace_ = trace; }

  /// Installs (or clears, with nullptr) the schedule-perturbation hook.
  /// The hook must outlive every subsequent run() call. While a hook is
  /// installed, step fusion is suppressed (fuse_budget() stays 1): the
  /// fusion window proof assumes smallest-(clock, id) pop order.
  void set_perturb(SchedPerturb* p) { perturb_ = p; }
  SchedPerturb* perturb() const { return perturb_; }

 private:
  Cycle run_perturbed(Cycle max_cycles);

  struct Core {
    Cycle clock = 0;
    std::unique_ptr<CoreTask> task;
  };
  std::vector<Core> cores_;
  Cycle fuse_budget_ = 1;
  bool fusion_ = default_step_fusion();
  obs::TraceSink* trace_ = nullptr;
  SchedPerturb* perturb_ = nullptr;
};

}  // namespace st::sim
