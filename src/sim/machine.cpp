#include "sim/machine.hpp"

#include <queue>
#include <utility>

#include "common/check.hpp"
#include "obs/trace.hpp"

namespace st::sim {

Machine::Machine(unsigned cores) {
  ST_CHECK(cores >= 1 && cores <= kMaxCores);
  cores_.resize(cores);
}

void Machine::set_task(CoreId core, std::unique_ptr<CoreTask> task) {
  ST_CHECK(core < cores_.size());
  // Capture the time before installing: the new task must not make itself
  // the "minimum running clock" and start in the past.
  const Cycle start = now();
  cores_[core].task = std::move(task);
  cores_[core].clock = start;
}

Cycle Machine::now() const {
  Cycle min_running = ~Cycle{0};
  Cycle max_any = 0;
  for (const auto& c : cores_) {
    if (c.clock > max_any) max_any = c.clock;
    if (c.task && !c.task->done() && c.clock < min_running)
      min_running = c.clock;
  }
  return min_running == ~Cycle{0} ? max_any : min_running;
}

Cycle Machine::run(Cycle max_cycles) {
  // A perturbation hook takes its own loop (and budget 1): the hook picks
  // cores in arbitrary order, and the fusion window only holds for
  // smallest-(clock, id) pops.
  if (perturb_ != nullptr) return run_perturbed(max_cycles);
  // Event queue keyed by (clock, core id): pop order is exactly the old
  // linear scan's order (smallest clock, ties by id) without rescanning
  // every core per step. Entries go stale when a task advances clocks it
  // does not own (advance_clock from inside step); a popped entry whose
  // clock disagrees with the core's is requeued at the true clock, so no
  // runnable core is ever lost. Clocks only grow, so this terminates.
  using Entry = std::pair<Cycle, CoreId>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> ready;
  for (unsigned i = 0; i < cores_.size(); ++i)
    if (cores_[i].task && !cores_[i].task->done())
      ready.emplace(cores_[i].clock, static_cast<CoreId>(i));
  while (!ready.empty()) {
    const auto [clk, id] = ready.top();
    ready.pop();
    Core& c = cores_[id];
    if (!c.task || c.task->done()) continue;
    if (c.clock != clk) {
      ready.emplace(c.clock, id);
      continue;
    }
    if (c.clock >= max_cycles) break;
    // Fusion window: the stepping core stays the scheduler's choice for any
    // event it would enqueue strictly before `limit` (the next competing
    // entry's clock, +1 when this core also wins the id tie-break; capped
    // by max_cycles). Work fused inside the window executes in exactly the
    // order single-stepping would have produced. Stale competitor entries
    // only shrink the window — never past an actual runnable event.
    Cycle limit = max_cycles;
    if (!ready.empty()) {
      const auto [nclk, nid] = ready.top();
      const Cycle h = (id < nid && nclk != ~Cycle{0}) ? nclk + 1 : nclk;
      if (h < limit) limit = h;
    }
    fuse_budget_ = (fusion_ && limit > clk) ? limit - clk : 1;
    const Cycle used = c.task->step(*this, id);
    fuse_budget_ = 1;
    c.clock += used < 1 ? 1 : used;
    if (!c.task->done()) {
      ready.emplace(c.clock, id);
    } else if (trace_ != nullptr) {
      // A finished task is never re-enqueued, so this fires exactly once
      // per core per run.
      trace_->emit(id, {c.clock, obs::EventKind::kCoreDone, 0, 0, 0, 0});
    }
  }
  Cycle end = 0;
  for (const auto& c : cores_)
    if (c.clock > end) end = c.clock;
  return end;
}

Cycle Machine::run_perturbed(Cycle max_cycles) {
  // Correctness-checking mode: the installed hook picks the next core to
  // step (possibly out of clock order) and may inject idle delays. Memory
  // effects take place in host step order, so the chosen order IS the
  // logical interleaving being explored; core clocks become per-core cost
  // accounting rather than a global total order. Fusion stays off — the
  // fuse-window argument only holds for smallest-(clock, id) pops.
  fuse_budget_ = 1;
  std::vector<CoreId> runnable;
  runnable.reserve(cores_.size());
  for (;;) {
    runnable.clear();
    for (unsigned i = 0; i < cores_.size(); ++i) {
      const Core& c = cores_[i];
      if (c.task && !c.task->done() && c.clock < max_cycles)
        runnable.push_back(static_cast<CoreId>(i));
    }
    if (runnable.empty()) break;
    const CoreId id = perturb_->pick(*this, runnable);
    Core& c = cores_[id];
    ST_CHECK_MSG(c.task && !c.task->done(), "perturb picked a finished core");
    c.clock += perturb_->delay(id, c.clock);
    const Cycle used = c.task->step(*this, id);
    c.clock += used < 1 ? 1 : used;
    if (c.task->done() && trace_ != nullptr)
      trace_->emit(id, {c.clock, obs::EventKind::kCoreDone, 0, 0, 0, 0});
  }
  Cycle end = 0;
  for (const auto& c : cores_)
    if (c.clock > end) end = c.clock;
  return end;
}

}  // namespace st::sim
