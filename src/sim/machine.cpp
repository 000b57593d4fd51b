#include "sim/machine.hpp"

#include <algorithm>
#include <cstdint>
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

/// A scheduler entry packed into one word: `id`'s next step starts at
/// `clock`, stored as `clock << kIdBits | id`. Unsigned order on the key is
/// exactly the (clock, id) order run() steps cores in, so the heap compares
/// one integer instead of two fields.
using Key = std::uint64_t;
constexpr unsigned kIdBits = 8;
static_assert(kMaxCores <= (1u << kIdBits),
              "a core id must fit the key's id bits");
constexpr Cycle kClockLimit = Cycle{1} << (64 - kIdBits);

/// The one place a key is built. A clock of 2^56 or more would spill into
/// the id bits and silently reorder the schedule, so it fails instead.
Key make_key(Cycle clock, CoreId id) {
  ST_CHECK_MSG(clock < kClockLimit,
               "core clock reached 2^56, past the scheduler key");
  return clock << kIdBits | id;
}

Cycle key_clock(Key k) { return k >> kIdBits; }
CoreId key_id(Key k) { return static_cast<CoreId>(k & ((1u << kIdBits) - 1)); }

/// Moves heap[i] down until neither child is smaller (a binary min-heap of
/// keys; the children of slot i are 2i+1 and 2i+2). The smaller child is
/// picked with a conditional move rather than a branch: most steps have a
/// competitor at the same clock, so which child wins is a coin toss the
/// branch predictor cannot learn.
void sift_down(std::vector<Key>& heap, std::size_t i) {
  const std::size_t n = heap.size();
  Key* h = heap.data();
  const Key k = h[i];
  for (;;) {
    std::size_t c = 2 * i + 1;
    if (c >= n) break;
    Key kc = h[c];
    if (c + 1 < n) {
      const Key k2 = h[c + 1];
      const bool right = k2 < kc;
      c += right;
      kc = right ? k2 : kc;
    }
    if (kc >= k) break;
    h[i] = kc;
    i = c;
  }
  h[i] = k;
}

}  // namespace

Cycle Machine::run(Cycle max_cycles) {
  // A perturbation hook takes its own loop (and budget 1): the hook picks
  // cores in arbitrary order, and the fusion window only holds for
  // smallest-(clock, id) pops.
  if (perturb_ != nullptr) return run_perturbed(max_cycles);
  // Replace-top event heap of packed (clock, core id) keys, one entry per
  // running core: the top is exactly what a linear scan for the smallest
  // (clock, id) would pick, without rescanning every core per step. The top
  // core steps in place; afterwards one sift-down re-keys its entry at its
  // new clock, or the entry is removed when the task finished. Entries go
  // stale when a task advances clocks it does not own (advance_clock from
  // inside step); a stale top is re-keyed at the core's true clock the same
  // way, so no runnable core is ever lost. Clocks only grow, so this
  // terminates. Every key goes through make_key, so a clock that reaches
  // 2^56 stops the run on an ST_CHECK rather than wrapping into the id bits.
  std::vector<Key> heap;
  heap.reserve(cores_.size());
  for (unsigned i = 0; i < cores_.size(); ++i)
    if (cores_[i].task && !cores_[i].task->done())
      heap.push_back(make_key(cores_[i].clock, static_cast<CoreId>(i)));
  for (std::size_t i = heap.size() / 2; i-- > 0;) sift_down(heap, i);
  while (!heap.empty()) {
    const Key top = heap[0];
    const CoreId id = key_id(top);
    const Cycle clk = key_clock(top);
    Core& c = cores_[id];
    if (c.clock != clk) {
      heap[0] = make_key(c.clock, id);
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
    // shrink the window — never past an actual runnable event. The limit
    // is computed from the competitor's clock field, which is below 2^56,
    // so the +1 cannot overflow (adding to the packed key could).
    Cycle limit = max_cycles;
    if (heap.size() > 1) {
      Key next = heap[1];
      if (heap.size() > 2) next = std::min(next, heap[2]);
      const Cycle h = key_clock(next) + (key_id(next) > id);
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
      heap[0] = make_key(c.clock, id);
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
