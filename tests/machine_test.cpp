#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.hpp"
#include "sim/machine.hpp"

namespace st::sim {
namespace {

/// Task that records the global order of its steps and their start clocks.
struct TraceTask final : CoreTask {
  TraceTask(std::vector<std::pair<unsigned, Cycle>>* trace, unsigned id,
            Cycle cost, unsigned steps)
      : trace_(trace), id_(id), cost_(cost), remaining_(steps) {}

  Cycle step(Machine& m, CoreId c) override {
    trace_->emplace_back(id_, m.core_clock(c));
    --remaining_;
    return cost_;
  }
  bool done() const override { return remaining_ == 0; }

  std::vector<std::pair<unsigned, Cycle>>* trace_;
  unsigned id_;
  Cycle cost_;
  unsigned remaining_;
};

TEST(Machine, RunsUntilAllTasksDone) {
  Machine m(2);
  std::vector<std::pair<unsigned, Cycle>> trace;
  m.set_task(0, std::make_unique<TraceTask>(&trace, 0, 10, 3));
  m.set_task(1, std::make_unique<TraceTask>(&trace, 1, 10, 2));
  m.run();
  EXPECT_EQ(trace.size(), 5u);
}

TEST(Machine, MinClockCoreRunsFirstTiesByCoreId) {
  Machine m(2);
  std::vector<std::pair<unsigned, Cycle>> trace;
  m.set_task(0, std::make_unique<TraceTask>(&trace, 0, 10, 2));
  m.set_task(1, std::make_unique<TraceTask>(&trace, 1, 3, 4));
  m.run();
  // t=0: core0 (tie, lower id) then core1; t=3,6,9: core1; t=10: core0.
  ASSERT_EQ(trace.size(), 6u);
  EXPECT_EQ(trace[0], (std::pair<unsigned, Cycle>{0, 0}));
  EXPECT_EQ(trace[1], (std::pair<unsigned, Cycle>{1, 0}));
  EXPECT_EQ(trace[2], (std::pair<unsigned, Cycle>{1, 3}));
  EXPECT_EQ(trace[3], (std::pair<unsigned, Cycle>{1, 6}));
  EXPECT_EQ(trace[4], (std::pair<unsigned, Cycle>{1, 9}));
  EXPECT_EQ(trace[5], (std::pair<unsigned, Cycle>{0, 10}));
}

TEST(Machine, ZeroCycleStepsStillAdvanceTheClock) {
  Machine m(1);
  std::vector<std::pair<unsigned, Cycle>> trace;
  m.set_task(0, std::make_unique<TraceTask>(&trace, 0, 0, 3));
  const Cycle end = m.run();
  EXPECT_EQ(end, 3u);  // clamped to >= 1 per step
}

TEST(Machine, MaxCyclesStopsEarly) {
  Machine m(1);
  std::vector<std::pair<unsigned, Cycle>> trace;
  m.set_task(0, std::make_unique<TraceTask>(&trace, 0, 10, 1000));
  m.run(55);
  EXPECT_LE(trace.size(), 7u);
  EXPECT_GE(trace.size(), 5u);
}

TEST(Machine, RunReturnsMaxCoreClock) {
  Machine m(2);
  std::vector<std::pair<unsigned, Cycle>> trace;
  m.set_task(0, std::make_unique<TraceTask>(&trace, 0, 7, 3));
  m.set_task(1, std::make_unique<TraceTask>(&trace, 1, 5, 2));
  EXPECT_EQ(m.run(), 21u);
}

TEST(Machine, LateInstalledTaskStartsAtCurrentTime) {
  Machine m(2);
  std::vector<std::pair<unsigned, Cycle>> trace;
  m.set_task(0, std::make_unique<TraceTask>(&trace, 0, 10, 2));
  m.run();
  m.set_task(1, std::make_unique<TraceTask>(&trace, 1, 1, 1));
  m.run();
  // Core 1 must not run "in the past" relative to core 0's finish.
  EXPECT_EQ(trace.back().first, 1u);
  EXPECT_GE(trace.back().second, 20u);
}

TEST(Machine, AdvanceClockAddsIdleTime) {
  Machine m(1);
  std::vector<std::pair<unsigned, Cycle>> trace;
  m.advance_clock(0, 100);
  m.set_task(0, std::make_unique<TraceTask>(&trace, 0, 1, 1));
  m.run();
  EXPECT_GE(trace[0].second, 100u);
}

TEST(Machine, CoreCountValidated) {
  EXPECT_DEATH(Machine m(0), "");
  EXPECT_DEATH(Machine m(kMaxCores + 1), "");
}

// ------------------- scheduler differential test --------------------------
//
// Machine::run against a reference scheduler kept here: a linear scan for
// the smallest (queued clock, id). A core's queued clock is the clock its
// scheduler entry was keyed at; it lags the true clock when another core's
// step advances it, and is refreshed when it reaches the top. The fusion
// window's competitor is the smallest queued entry among the other cores.

/// One step of a scripted task: its cost, plus idle time added to another
/// core's clock from inside the step (`other` < 0: none).
struct Action {
  Cycle cost;
  int other;
  Cycle amount;
};

struct Script {
  std::vector<Action> actions;  // empty: done at install
  bool fuses = false;  // consumes min(cost, fuse budget), like a fused run
};

/// What the scheduler offered one step: which core, at what clock, with
/// which fusion budget.
struct Step {
  CoreId core;
  Cycle start;
  Cycle budget;
  bool operator==(const Step&) const = default;
};

class ScriptedTask final : public CoreTask {
 public:
  ScriptedTask(const Script& s, std::vector<Step>* log) : s_(s), log_(log) {}

  Cycle step(Machine& m, CoreId core) override {
    log_->push_back({core, m.core_clock(core), m.fuse_budget()});
    const Action& a = s_.actions[next_++];
    if (a.other >= 0) m.advance_clock(static_cast<CoreId>(a.other), a.amount);
    return s_.fuses ? std::min(a.cost, m.fuse_budget()) : a.cost;
  }
  bool done() const override { return next_ == s_.actions.size(); }

 private:
  const Script& s_;
  std::vector<Step>* log_;
  std::size_t next_ = 0;
};

struct Scenario {
  unsigned cores = 1;
  std::vector<bool> installed;
  std::vector<Script> scripts;
  std::vector<Cycle> head_start;  // advance_clock after install
  bool fusion = true;
  Cycle slice = 0;  // 0: one unbounded run(); else bounded slices
};

Script random_script(Xoshiro256ss& rng, unsigned cores) {
  Script s;
  s.fuses = rng.chance_pct(50);
  const std::uint64_t n = rng.chance_pct(10) ? 0 : rng.next_range(1, 60);
  for (std::uint64_t i = 0; i < n; ++i) {
    Action a{};
    a.cost = rng.chance_pct(20) ? 0 : rng.next_range(1, 40);
    a.other =
        rng.chance_pct(15) ? static_cast<int>(rng.next_below(cores)) : -1;
    a.amount = rng.next_range(1, 60);
    s.actions.push_back(a);
  }
  return s;
}

Scenario random_scenario(Xoshiro256ss& rng) {
  Scenario sc;
  sc.cores = static_cast<unsigned>(rng.next_range(1, 12));
  sc.fusion = rng.chance_pct(70);
  sc.slice = rng.chance_pct(40) ? rng.next_range(1, 200) : 0;
  for (unsigned c = 0; c < sc.cores; ++c) {
    sc.installed.push_back(rng.chance_pct(85));
    sc.head_start.push_back(rng.chance_pct(30) ? rng.next_below(50) : 0);
    sc.scripts.push_back(random_script(rng, sc.cores));
  }
  return sc;
}

/// kMaxCores cores that all start at clock 0 except a few head starts: the
/// first steps are all ties, core ids reach 255 and the heap is 8 levels
/// deep, none of which random_scenario's at most 12 cores reach.
Scenario max_cores_scenario(Xoshiro256ss& rng) {
  Scenario sc;
  sc.cores = kMaxCores;
  sc.fusion = rng.chance_pct(70);
  sc.slice = rng.chance_pct(40) ? rng.next_range(1, 200) : 0;
  for (unsigned c = 0; c < sc.cores; ++c) {
    sc.installed.push_back(rng.chance_pct(95));
    sc.head_start.push_back(rng.chance_pct(3) ? rng.next_below(50) : 0);
    sc.scripts.push_back(random_script(rng, sc.cores));
  }
  return sc;
}

/// The reference: same scenario, same observable log, no heap.
struct ReferenceScheduler {
  const Scenario& sc;
  std::vector<Cycle> clock;
  std::vector<std::size_t> next;

  explicit ReferenceScheduler(const Scenario& s)
      : sc(s), clock(s.cores, 0), next(s.cores, 0) {
    for (unsigned c = 0; c < s.cores; ++c) clock[c] += s.head_start[c];
  }

  bool live(unsigned c) const {
    return sc.installed[c] && next[c] < sc.scripts[c].actions.size();
  }
  bool all_done() const {
    for (unsigned c = 0; c < sc.cores; ++c)
      if (live(c)) return false;
    return true;
  }

  Cycle run(Cycle max_cycles, std::vector<Step>* log) {
    std::vector<Cycle> queued = clock;
    std::vector<bool> in_queue(sc.cores);
    for (unsigned c = 0; c < sc.cores; ++c) in_queue[c] = live(c);
    const auto smallest = [&](int skip) {
      int best = -1;
      for (unsigned c = 0; c < sc.cores; ++c)
        if (in_queue[c] && static_cast<int>(c) != skip &&
            (best < 0 || queued[c] < queued[best]))
          best = static_cast<int>(c);
      return best;
    };
    for (;;) {
      const int top = smallest(-1);
      if (top < 0) break;
      if (queued[top] != clock[top]) {
        queued[top] = clock[top];
        continue;
      }
      const Cycle clk = clock[top];
      if (clk >= max_cycles) break;
      Cycle limit = max_cycles;
      if (const int comp = smallest(top); comp >= 0) {
        const Cycle h = (top < comp && queued[comp] != ~Cycle{0})
                            ? queued[comp] + 1
                            : queued[comp];
        limit = std::min(limit, h);
      }
      const Cycle budget = (sc.fusion && limit > clk) ? limit - clk : 1;
      log->push_back({static_cast<CoreId>(top), clk, budget});
      const Script& s = sc.scripts[top];
      const Action& a = s.actions[next[top]++];
      if (a.other >= 0) clock[a.other] += a.amount;
      const Cycle used = s.fuses ? std::min(a.cost, budget) : a.cost;
      clock[top] += std::max<Cycle>(used, 1);
      queued[top] = clock[top];
      if (!live(top)) in_queue[top] = false;
    }
    return *std::max_element(clock.begin(), clock.end());
  }
};

/// Drives `run` (Machine or reference) the way the harness does: one
/// unbounded call, or bounded slices resumed until every task is done.
template <typename Run, typename Done>
std::vector<Cycle> drive(const Scenario& sc, Run run, Done all_done) {
  std::vector<Cycle> ends;
  if (sc.slice == 0) {
    ends.push_back(run(~Cycle{0}));
    return ends;
  }
  Cycle end = 0;
  while (!all_done() && ends.size() < 100'000) {
    end = run(end + sc.slice);
    ends.push_back(end);
  }
  return ends;
}

TEST(Machine, HeapSchedulerMatchesLinearScanReference) {
  Xoshiro256ss rng(2024);
  for (int trial = 0; trial < 400; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const Scenario sc = random_scenario(rng);

    Machine m(sc.cores);
    m.set_step_fusion(sc.fusion);
    std::vector<Step> got;
    for (unsigned c = 0; c < sc.cores; ++c)
      if (sc.installed[c])
        m.set_task(c, std::make_unique<ScriptedTask>(sc.scripts[c], &got));
    for (unsigned c = 0; c < sc.cores; ++c)
      m.advance_clock(c, sc.head_start[c]);
    const std::vector<Cycle> got_ends = drive(
        sc, [&](Cycle max) { return m.run(max); },
        [&] { return m.all_done(); });

    ReferenceScheduler ref(sc);
    std::vector<Step> want;
    const std::vector<Cycle> want_ends = drive(
        sc, [&](Cycle max) { return ref.run(max, &want); },
        [&] { return ref.all_done(); });

    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i)
      ASSERT_EQ(got[i], want[i])
          << "step " << i << ": core " << got[i].core << " at "
          << got[i].start << " budget " << got[i].budget << ", want core "
          << want[i].core << " at " << want[i].start << " budget "
          << want[i].budget;
    ASSERT_EQ(got_ends, want_ends);
    EXPECT_TRUE(m.all_done());
  }
}

/// Runs `sc` on a Machine and returns the steps it offered and the ends of
/// its run() calls.
std::pair<std::vector<Step>, std::vector<Cycle>> run_machine(
    const Scenario& sc) {
  Machine m(sc.cores);
  m.set_step_fusion(sc.fusion);
  std::vector<Step> log;
  for (unsigned c = 0; c < sc.cores; ++c)
    if (sc.installed[c])
      m.set_task(c, std::make_unique<ScriptedTask>(sc.scripts[c], &log));
  for (unsigned c = 0; c < sc.cores; ++c)
    m.advance_clock(c, sc.head_start[c]);
  std::vector<Cycle> ends = drive(
      sc, [&](Cycle max) { return m.run(max); }, [&] { return m.all_done(); });
  EXPECT_TRUE(m.all_done());
  return {std::move(log), std::move(ends)};
}

/// The same for the reference scheduler.
std::pair<std::vector<Step>, std::vector<Cycle>> run_reference(
    const Scenario& sc) {
  ReferenceScheduler ref(sc);
  std::vector<Step> log;
  std::vector<Cycle> ends = drive(
      sc, [&](Cycle max) { return ref.run(max, &log); },
      [&] { return ref.all_done(); });
  return {std::move(log), std::move(ends)};
}

TEST(Machine, HeapSchedulerMatchesReferenceAtMaxCores) {
  Xoshiro256ss rng(256);
  for (int trial = 0; trial < 20; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const Scenario sc = max_cores_scenario(rng);
    const auto [got, got_ends] = run_machine(sc);
    const auto [want, want_ends] = run_reference(sc);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i)
      ASSERT_EQ(got[i], want[i])
          << "step " << i << ": core " << got[i].core << " at "
          << got[i].start << " budget " << got[i].budget << ", want core "
          << want[i].core << " at " << want[i].start << " budget "
          << want[i].budget;
    ASSERT_EQ(got_ends, want_ends);
  }
}

// A scheduler entry packs a clock into the top 56 bits of a word, so 2^56 - 1
// is the largest clock a core can step at.
constexpr Cycle kClockLimit = Cycle{1} << 56;

TEST(Machine, ClockJustBelowKeyLimitStepsWithExactFuseBudget) {
  constexpr Cycle kLast = kClockLimit - 1;
  Scenario sc;
  sc.cores = 2;
  sc.installed = {true, true};
  sc.scripts = {Script{{{9, -1, 0}, {1, -1, 0}}}, Script{{{1, -1, 0}}}};
  sc.head_start = {kLast - 9, kLast};
  const auto [got, got_ends] = run_machine(sc);
  const std::vector<Step> want = {
      // Core 1 waits at kLast with the larger id, so core 0 may fuse up to
      // and including kLast: the window's +1 must not wrap.
      {0, kLast - 9, 10},
      // Both at kLast: core 0 wins the tie, with a budget of 1.
      {0, kLast, 1},
      // Alone: the window is capped by run()'s max_cycles only.
      {1, kLast, ~Cycle{0} - kLast},
  };
  EXPECT_EQ(got, want);
  EXPECT_EQ(got_ends, std::vector<Cycle>{kClockLimit});
  const auto [ref, ref_ends] = run_reference(sc);
  EXPECT_EQ(got, ref);
  EXPECT_EQ(got_ends, ref_ends);
}

TEST(MachineDeath, ClockAtKeyLimitDiesInsteadOfWrapping) {
  std::vector<std::pair<unsigned, Cycle>> trace;
  // Already at 2^56 when run() builds its heap.
  EXPECT_DEATH(
      {
        Machine m(2);
        m.set_task(0, std::make_unique<TraceTask>(&trace, 0, 1, 1));
        m.set_task(1, std::make_unique<TraceTask>(&trace, 1, 1, 1));
        m.advance_clock(0, kClockLimit);
        m.run();
      },
      "core clock reached 2\\^56");
  // Reaches 2^56 in a step and is re-keyed while still running.
  EXPECT_DEATH(
      {
        Machine m(1);
        m.set_task(0, std::make_unique<TraceTask>(&trace, 0, 1, 2));
        m.advance_clock(0, kClockLimit - 1);
        m.run();
      },
      "core clock reached 2\\^56");
}

}  // namespace
}  // namespace st::sim
