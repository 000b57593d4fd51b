#include "sim/machine.hpp"

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

namespace {

/// A scheduler event: `id`'s next step starts at `clock`.
struct Event {
  Cycle clock;
  CoreId id;
};

/// Smallest clock first, ties by core id: the order run() steps cores in.
bool before(const Event& a, const Event& b) {
  return a.clock < b.clock || (a.clock == b.clock && a.id < b.id);
}

/// Moves heap[i] down until neither child comes before it (a binary
/// min-heap under `before`; the children of slot i are 2i+1 and 2i+2).
void sift_down(std::vector<Event>& heap, std::size_t i) {
  const std::size_t n = heap.size();
  const Event e = heap[i];
  for (;;) {
    std::size_t c = 2 * i + 1;
    if (c >= n) break;
    if (c + 1 < n && before(heap[c + 1], heap[c])) ++c;
    if (!before(heap[c], e)) break;
    heap[i] = heap[c];
    i = c;
  }
  heap[i] = e;
}

}  // namespace

Cycle Machine::run(Cycle max_cycles) {
  // A perturbation hook takes its own loop (and budget 1): the hook picks
  // cores in arbitrary order, and the fusion window only holds for
  // smallest-(clock, id) pops.
  if (perturb_ != nullptr) return run_perturbed(max_cycles);
  // Replace-top event heap keyed by (clock, core id), one entry per running
  // core: the top is exactly what a linear scan for the smallest (clock, id)
  // would pick, without rescanning every core per step. The top core steps
  // in place; afterwards one sift-down re-keys its entry at its new clock,
  // or the entry is removed when the task finished. Entries go stale when a
  // task advances clocks it does not own (advance_clock from inside step);
  // a stale top is re-keyed at the core's true clock the same way, so no
  // runnable core is ever lost. Clocks only grow, so this terminates.
  std::vector<Event> heap;
  heap.reserve(cores_.size());
  for (unsigned i = 0; i < cores_.size(); ++i)
    if (cores_[i].task && !cores_[i].task->done())
      heap.push_back({cores_[i].clock, static_cast<CoreId>(i)});
  for (std::size_t i = heap.size() / 2; i-- > 0;) sift_down(heap, i);
  while (!heap.empty()) {
    const auto [clk, id] = heap[0];
    Core& c = cores_[id];
    if (c.clock != clk) {
      heap[0].clock = c.clock;
      sift_down(heap, 0);
      continue;
    }
    if (clk >= max_cycles) break;
    // Fusion window: the stepping core stays the scheduler's choice for any
    // event it would enqueue strictly before `limit` (the next competing
    // entry's clock, +1 when this core also wins the id tie-break; capped
    // by max_cycles). Work fused inside the window executes in exactly the
    // order single-stepping would have produced. The competitor is the
    // smaller of the top's two children. Stale competitor entries only
    // shrink the window — never past an actual runnable event.
    Cycle limit = max_cycles;
    if (heap.size() > 1) {
      Event next = heap[1];
      if (heap.size() > 2 && before(heap[2], next)) next = heap[2];
      const Cycle h =
          (id < next.id && next.clock != ~Cycle{0}) ? next.clock + 1
                                                    : next.clock;
      if (h < limit) limit = h;
    }
    fuse_budget_ = (fusion_ && limit > clk) ? limit - clk : 1;
    const Cycle used = c.task->step(*this, id);
    fuse_budget_ = 1;
    c.clock += used < 1 ? 1 : used;
    // The only done() call per step: a task's done() changes only inside
    // its own step() (the CoreTask contract), so the entries of the other
    // cores never need re-checking.
    if (!c.task->done()) {
      heap[0].clock = c.clock;
    } else {
      // A finished task's entry is removed, so this fires exactly once per
      // core per run.
      if (trace_ != nullptr)
        trace_->emit(id, {c.clock, obs::EventKind::kCoreDone, 0, 0, 0, 0});
      heap[0] = heap.back();
      heap.pop_back();
      if (heap.empty()) break;
    }
    sift_down(heap, 0);
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
