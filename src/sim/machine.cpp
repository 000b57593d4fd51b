#include "sim/machine.hpp"

#include <barrier>
#include <chrono>
#include <queue>
#include <thread>
#include <utility>

#include "common/check.hpp"
#include "common/env.hpp"
#include "obs/trace.hpp"

namespace st::sim {

unsigned Machine::default_host_threads() {
  // Re-read per call (one Machine construction each): latching the first
  // answer in a static would let the first Machine built in a process pin
  // the setting for every later one, which breaks tests and tools that
  // flip the knob between runs.
  return static_cast<unsigned>(
      env_u64("STAGTM_THREADS", 1, 1, kMaxCores, "an integer in [1,256]"));
}

void Machine::set_host_threads(unsigned n) {
  ST_CHECK(n >= 1 && n <= kMaxCores);
  host_threads_ = n;
}

Cycle& Machine::tls_fuse_budget() {
  thread_local Cycle v = 1;
  return v;
}

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
  // A perturbation hook forces the serial path (and budget 1) no matter
  // what host_threads says: the hook picks cores in arbitrary order, and
  // the window-safety argument only holds for smallest-(clock, id) pops.
  if (perturb_ != nullptr) return run_perturbed(max_cycles);
  if (host_threads_ > 1 && cores_.size() > 1) return run_parallel(max_cycles);
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

// Parallel deterministic engine (DESIGN.md §13). The run alternates two
// regimes that together replay the serial heap's pop order exactly:
//
//  * A serial drain on this (the main) thread pops synchronizing steps —
//    any step that may touch shared state — in smallest-(clock, id) order,
//    with the same stale-entry requeue rule as run(). The drain stops once
//    the heap's top no longer precedes every window-local core: past that
//    point the serial loop would have popped a local core first.
//
//  * A parallel lookahead window: each worker advances the cores it owns
//    (id % workers) through window-local steps until the core's next step
//    is a synchronizing one (or the cycle limit). A local step reads and
//    writes only core-private state (CoreTask::next_step_local) — since
//    asynchronous aborts are observed only at boundary instructions, not
//    even a pending-abort stamp can reach into a pure run — so a core's
//    entire run to its own next boundary is independent of every other
//    core, and the host-side interleaving across workers is unobservable.
//    Windows whose local-core fan-out could not occupy the worker pool are
//    executed inline on the main thread instead: the two futex round trips
//    of a barrier handoff cost more than a handful of steps.
//
// Every synchronizing step therefore executes on one thread, in exactly
// the serial order, at exactly the serial clocks; window-local steps
// retire exactly the instructions the serial loop would retire between the
// same two synchronizing events, for the same per-step costs (only the
// fuse-budget chopping of pure runs differs, which is host-side). Tracing,
// commit logs, RNG draws and now() queries all happen inside synchronizing
// steps, so all simulated results are bit-identical to host_threads == 1
// by construction.
Cycle Machine::run_parallel(Cycle max_cycles) {
  const unsigned n = cores();
  const unsigned workers = host_threads_ < n ? host_threads_ : n;
  if (par_.barrier_wait_ns.size() < workers)
    par_.barrier_wait_ns.resize(workers, 0);

  enum class St : std::uint8_t { kDone, kLocal, kSync };
  std::vector<St> status(n, St::kDone);
  auto classify = [&](CoreId id) {
    const Core& c = cores_[id];
    if (!c.task || c.task->done()) return St::kDone;
    return c.task->next_step_local(*this, id) ? St::kLocal : St::kSync;
  };

  using Entry = std::pair<Cycle, CoreId>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> sync;
  for (CoreId i = 0; i < n; ++i) {
    status[i] = classify(i);
    if (status[i] == St::kSync) sync.emplace(cores_[i].clock, i);
  }

  // Written by the main thread strictly before the start barrier and read
  // by workers strictly after it (the barriers order the accesses, so no
  // atomics are needed).
  bool stop = false;

  // Advances one window-local core to its next synchronizing step (or the
  // cycle limit), flipping it to kSync and recording it in `newly_sync`
  // for the next drain. Shared by the worker shards and the inline path.
  // The fuse budget is the remaining horizon: a pure run stops by itself
  // at the first boundary instruction, and allowing the interpreter to
  // fuse the whole run (rather than heap-budget-sized pieces of it) only
  // changes host-side chopping, never a simulated result.
  auto advance_local = [&](CoreId id, std::uint64_t& steps,
                           std::uint64_t& instrs,
                           std::vector<CoreId>& newly_sync) {
    Core& c = cores_[id];
    const std::uint64_t i0 = c.task->instrs_retired();
    while (c.clock < max_cycles) {
      if (!c.task->next_step_local(*this, id)) {
        status[id] = St::kSync;
        newly_sync.push_back(id);
        break;
      }
      tls_fuse_budget() = fusion_ ? max_cycles - c.clock : 1;
      const Cycle used = c.task->step(*this, id);
      c.clock += used < 1 ? 1 : used;
      ++steps;
    }
    instrs += c.task->instrs_retired() - i0;
  };

  struct WorkerSlot {
    std::uint64_t steps = 0;
    std::uint64_t instrs = 0;
    std::uint64_t wait_ns = 0;
    std::vector<CoreId> newly_sync;
  };
  std::vector<WorkerSlot> slots(workers);
  std::barrier window_start(workers + 1), window_end(workers + 1);
  const auto ns_since = [](std::chrono::steady_clock::time_point t0) {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
  };

  auto worker = [&](unsigned w) {
    WorkerSlot& slot = slots[w];
    for (;;) {
      const auto t0 = std::chrono::steady_clock::now();
      window_start.arrive_and_wait();
      slot.wait_ns += ns_since(t0);
      if (stop) return;
      for (CoreId id = w; id < n; id += workers)
        if (status[id] == St::kLocal)
          advance_local(id, slot.steps, slot.instrs, slot.newly_sync);
      const auto t1 = std::chrono::steady_clock::now();
      window_end.arrive_and_wait();
      slot.wait_ns += ns_since(t1);
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (unsigned w = 0; w < workers; ++w) pool.emplace_back(worker, w);
  std::vector<CoreId> inline_newly;

  for (;;) {
    // Minimum (clock, id) over window-local cores: the drain may execute
    // heap entries strictly below it, exactly as the serial loop would
    // pop them before any local core's next event.
    bool have_local = false;
    unsigned nlocal = 0;
    Cycle lclk = 0;
    CoreId lid = 0;
    for (CoreId i = 0; i < n; ++i) {
      if (status[i] != St::kLocal) continue;
      ++nlocal;
      if (!have_local || cores_[i].clock < lclk ||
          (cores_[i].clock == lclk && i < lid)) {
        lclk = cores_[i].clock;
        lid = i;
      }
      have_local = true;
    }

    while (!sync.empty()) {
      const auto [clk, id] = sync.top();
      if (have_local && (clk > lclk || (clk == lclk && id > lid))) break;
      if (clk >= max_cycles) break;
      sync.pop();
      Core& c = cores_[id];
      if (!c.task || c.task->done()) {
        status[id] = St::kDone;
        continue;
      }
      if (c.clock != clk) {
        sync.emplace(c.clock, id);
        continue;
      }
      // Synchronizing steps execute exactly one event; none of them reads
      // the budget (boundary instructions run alone at any budget), so 1
      // is both safe and exact.
      fuse_budget_ = 1;
      const std::uint64_t i0 = c.task->instrs_retired();
      const Cycle used = c.task->step(*this, id);
      c.clock += used < 1 ? 1 : used;
      ++par_.drain_steps;
      par_.drain_instrs += c.task->instrs_retired() - i0;
      if (c.task->done()) {
        status[id] = St::kDone;
        if (trace_ != nullptr)
          trace_->emit(id, {c.clock, obs::EventKind::kCoreDone, 0, 0, 0, 0});
      } else if (c.task->next_step_local(*this, id)) {
        status[id] = St::kLocal;
        ++nlocal;
        if (!have_local || c.clock < lclk ||
            (c.clock == lclk && id < lid)) {
          lclk = c.clock;
          lid = id;
        }
        have_local = true;
      } else {
        sync.emplace(c.clock, id);
      }
    }

    if (!have_local || lclk >= max_cycles) break;

    ++par_.windows;
    par_.window_cores.add(nlocal);

    in_parallel_phase_ = true;
    if (nlocal < workers) {
      // Not enough fan-out to occupy the pool: run the window here. Same
      // loop the workers run, same results; only the executing thread (a
      // host-side choice) differs.
      ++par_.inline_windows;
      std::uint64_t steps = 0;
      std::uint64_t instrs = 0;
      for (CoreId i = 0; i < n; ++i)
        if (status[i] == St::kLocal)
          advance_local(i, steps, instrs, inline_newly);
      par_.window_steps += steps;
      par_.window_instrs += instrs;
      in_parallel_phase_ = false;
      for (CoreId id : inline_newly) sync.emplace(cores_[id].clock, id);
      inline_newly.clear();
    } else {
      window_start.arrive_and_wait();
      // Workers advance their local cores; this thread only waits.
      window_end.arrive_and_wait();
      in_parallel_phase_ = false;
      for (WorkerSlot& s : slots) {
        for (CoreId id : s.newly_sync) sync.emplace(cores_[id].clock, id);
        s.newly_sync.clear();
      }
    }
  }

  stop = true;
  window_start.arrive_and_wait();
  for (std::thread& t : pool) t.join();
  for (unsigned w = 0; w < workers; ++w) {
    par_.window_steps += slots[w].steps;
    par_.window_instrs += slots[w].instrs;
    par_.barrier_wait_ns[w] += slots[w].wait_ns;
  }

  Cycle end = 0;
  for (const auto& c : cores_)
    if (c.clock > end) end = c.clock;
  return end;
}

}  // namespace st::sim
