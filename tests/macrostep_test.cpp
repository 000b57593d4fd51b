// Macro-stepping (fused pure-register interpreter runs) tests.
//
// The load-bearing invariant: a fused execution is bit-identical to a
// single-stepped one, because cores interact only at boundary instructions
// and the scheduler only grants a fusion budget covering cycles where no
// other core has an event. Verified three ways: unit tests of the fused
// interpreter step, unit tests of the scheduler's budget computation, and
// differential full-system runs of real workloads with fusion on vs off.
#include <gtest/gtest.h>

#include <unordered_map>

#include "interp/interp.hpp"
#include "ir/builder.hpp"
#include "sim/machine.hpp"
#include "workloads/harness.hpp"

namespace st {
namespace {

// ---------------------------------------------------------------------------
// Fused interpreter semantics.
// ---------------------------------------------------------------------------

struct CountingEnv final : interp::ExecEnv {
  std::unordered_map<sim::Addr, std::uint64_t> mem;
  unsigned loads = 0;
  unsigned stores = 0;

  Mem load(sim::Addr a, unsigned, std::uint32_t) override {
    ++loads;
    return {mem[a & ~7ull], 2, true};
  }
  Mem store(sim::Addr a, std::uint64_t v, unsigned, std::uint32_t) override {
    ++stores;
    mem[a & ~7ull] = v;
    return {0, 2, true};
  }
  Mem nt_load(sim::Addr a, unsigned size) override { return load(a, size, 0); }
  Mem nt_store(sim::Addr a, std::uint64_t v, unsigned size) override {
    return store(a, v, size, 0);
  }
  Mem alloc(const ir::StructType*, sim::Addr& out, std::uint32_t) override {
    out = 0x100000;
    return {out, interp::Interp::kAllocCost, true};
  }
  void free_(sim::Addr) override {}
  AlpResult alpoint(std::uint32_t, sim::Addr, std::uint32_t) override {
    return {1, false, true};
  }
};

/// sum(0..n-1) via a counted loop: 3 pure instructions of setup, then a
/// pure 5-instruction loop body, then a Ret boundary.
ir::Function* build_sum_loop(ir::Module& m) {
  ir::FunctionBuilder b(m, "sum", {nullptr});
  const ir::Reg i = b.var(b.const_i(0));
  const ir::Reg acc = b.var(b.const_i(0));
  b.while_([&] { return b.cmp_slt(i, b.param(0)); },
           [&] {
             b.assign(acc, b.add(acc, i));
             b.assign(i, b.add(i, b.const_i(1)));
           });
  b.ret(acc);
  return b.function();
}

TEST(Macrostep, BudgetOneSingleSteps) {
  ir::Module m;
  ir::Function* f = build_sum_loop(m);
  m.finalize();
  CountingEnv env;
  interp::Interp it(env);
  it.start(f, std::vector<std::uint64_t>{8});
  unsigned steps = 0;
  while (!it.step(1).finished) ++steps;
  const std::uint64_t instrs1 = it.instrs_executed();
  EXPECT_EQ(it.result(), 28u);
  // budget 1 retires exactly one instruction per step (Ret is the +1):
  // even a decode-fused branch pair splits, because its second half
  // would start outside the budget.
  EXPECT_EQ(steps + 1, instrs1);
}

TEST(Macrostep, LargeBudgetFusesPureRunsSameResultAndCycles) {
  ir::Module m;
  ir::Function* f = build_sum_loop(m);
  m.finalize();
  CountingEnv env;

  // Reference: single-stepped, summing the per-step cycle costs.
  interp::Interp ref(env);
  ref.start(f, std::vector<std::uint64_t>{100});
  sim::Cycle ref_cycles = 0;
  unsigned ref_steps = 0;
  for (;;) {
    const auto s = ref.step(1);
    ref_cycles += s.cycles;
    ++ref_steps;
    if (s.finished) break;
  }

  // Fused: unbounded budget. The whole pure loop collapses into one step.
  interp::Interp fused(env);
  fused.start(f, std::vector<std::uint64_t>{100});
  sim::Cycle fused_cycles = 0;
  unsigned fused_steps = 0;
  for (;;) {
    const auto s = fused.step(1u << 20);
    fused_cycles += s.cycles;
    ++fused_steps;
    if (s.finished) break;
  }

  EXPECT_EQ(fused.result(), ref.result());
  EXPECT_EQ(fused.instrs_executed(), ref.instrs_executed());
  EXPECT_EQ(fused_cycles, ref_cycles);  // cost model is additive
  EXPECT_LT(fused_steps, ref_steps);    // and the fusion actually fused
  // The only boundary in this function is Ret; everything else fuses into
  // the step before it, so the whole run takes exactly 2 steps.
  EXPECT_EQ(fused_steps, 2u);
}

TEST(Macrostep, FusedRunStopsBeforeBoundary) {
  ir::Module m;
  ir::FunctionBuilder b(m, "f", {nullptr});
  // Pure setup, then a Store boundary, then more pure work.
  const ir::Reg v = b.var(b.add(b.param(0), b.const_i(1)));
  b.store(b.param(0), v, 8);
  b.ret(b.add(v, v));
  m.finalize();
  CountingEnv env;
  interp::Interp it(env);
  it.start(b.function(), std::vector<std::uint64_t>{0x2000});

  // Step 1: fuses the pure prefix, stops *before* the store.
  auto s = it.step(1u << 20);
  EXPECT_FALSE(s.finished);
  EXPECT_EQ(env.stores, 0u);
  // Step 2: the boundary executes alone.
  s = it.step(1u << 20);
  EXPECT_FALSE(s.finished);
  EXPECT_EQ(env.stores, 1u);
  EXPECT_EQ(env.mem[0x2000], 0x2001u);
  // Step 3: pure suffix + Ret... Ret is itself a boundary, so the pure run
  // stops before it; step 4 finishes.
  s = it.step(1u << 20);
  EXPECT_FALSE(s.finished);
  s = it.step(1u << 20);
  EXPECT_TRUE(s.finished);
  EXPECT_EQ(it.result(), 2 * 0x2001u);
}

TEST(Macrostep, BudgetCapsFusedCycleCost) {
  ir::Module m;
  ir::Function* f = build_sum_loop(m);
  m.finalize();
  CountingEnv env;
  interp::Interp it(env);
  it.start(f, std::vector<std::uint64_t>{1000});
  // Every fused step must consume at least 1 and at most `budget` cycles.
  for (;;) {
    const auto s = it.step(7);
    EXPECT_GE(s.cycles, 1u);
    if (!s.finished) EXPECT_LE(s.cycles, 7u);
    if (s.finished) break;
  }
  EXPECT_EQ(it.result(), 499500u);
}

// Decode-time superinstructions (imm fusion, Mov fusion, branch fusion —
// see ir/decode.hpp) must be invisible at every budget: any budget value
// slices the fused runs at different sub-instruction boundaries, and the
// result, retired-instruction count, and total cycle cost must all match
// the budget-1 single-stepped reference.
TEST(Macrostep, BudgetSweepIsInvariant) {
  ir::Module m;
  ir::FunctionBuilder b(m, "mix", {nullptr});
  // Exercises CmpSLt+CondBr pair fusion plus AddImm/XorImm/AndImm with
  // and without the trailing-Mov fold.
  const ir::Reg i = b.var(b.const_i(0));
  const ir::Reg acc = b.var(b.const_i(7));
  b.while_([&] { return b.cmp_slt(i, b.param(0)); },
           [&] {
             b.assign(acc, b.xor_(acc, b.const_i(0x5a)));
             b.assign(acc, b.add(acc, b.and_(i, b.const_i(3))));
             b.assign(i, b.add(i, b.const_i(1)));
           });
  b.ret(acc);
  ir::Function* f = b.function();

  m.finalize();
  CountingEnv env;
  interp::Interp ref(env);
  ref.start(f, std::vector<std::uint64_t>{50});
  sim::Cycle ref_cycles = 0;
  for (;;) {
    const auto s = ref.step(1);
    ref_cycles += s.cycles;
    if (s.finished) break;
  }

  for (sim::Cycle budget = 2; budget <= 12; ++budget) {
    interp::Interp it(env);
    it.start(f, std::vector<std::uint64_t>{50});
    sim::Cycle cycles = 0;
    for (;;) {
      const auto s = it.step(budget);
      cycles += s.cycles;
      if (s.finished) break;
    }
    EXPECT_EQ(it.result(), ref.result()) << "budget " << budget;
    EXPECT_EQ(it.instrs_executed(), ref.instrs_executed())
        << "budget " << budget;
    EXPECT_EQ(cycles, ref_cycles) << "budget " << budget;
  }
}

// The interpreter must reject a call that passes more arguments than the
// callee has registers (OOB write into callee.regs otherwise). Hand-built
// IR, since the builder cannot express this and the verifier now rejects it.
TEST(MacrostepDeath, CallWithTooManyArgsIsRejected) {
  ir::Module m;
  ir::Function* callee = m.add_function("callee", {});  // 0 params, 0 regs
  callee->add_block("entry");
  ir::Instr ret;
  ret.op = ir::Op::Ret;
  callee->entry()->instrs().push_back(ret);

  ir::Function* caller = m.add_function("caller", {nullptr});
  caller->add_block("entry");
  ir::Instr call;
  call.op = ir::Op::Call;
  call.callee = callee;
  call.args = {0};  // one argument to a register-less callee
  caller->entry()->instrs().push_back(call);
  caller->entry()->instrs().push_back(ret);

  m.finalize();
  CountingEnv env;
  interp::Interp it(env);
  it.start(caller, std::vector<std::uint64_t>{42});
  EXPECT_DEATH(it.step(), "more arguments than the callee has registers");
}

// ---------------------------------------------------------------------------
// Scheduler fusion budget.
// ---------------------------------------------------------------------------

/// Records the budget the machine granted at each step.
struct BudgetTask final : sim::CoreTask {
  BudgetTask(std::vector<sim::Cycle>* budgets, sim::Cycle cost, unsigned steps)
      : budgets_(budgets), cost_(cost), remaining_(steps) {}

  sim::Cycle step(sim::Machine& m, sim::CoreId) override {
    budgets_->push_back(m.fuse_budget());
    --remaining_;
    return cost_;
  }
  bool done() const override { return remaining_ == 0; }

  std::vector<sim::Cycle>* budgets_;
  sim::Cycle cost_;
  unsigned remaining_;
};

TEST(Macrostep, FuseBudgetCoversGapToNextCoreEvent) {
  sim::Machine m(2);
  m.set_step_fusion(true);
  std::vector<sim::Cycle> b0, b1;
  m.set_task(0, std::make_unique<BudgetTask>(&b0, 10, 2));
  m.set_task(1, std::make_unique<BudgetTask>(&b1, 3, 4));
  m.run();
  // t=0: core0 pops first (id tie-break); core1's entry is also at t=0, and
  // core0 wins ties, so it may fuse through t=0 only -> budget 1.
  // t=0: core1 runs; core0's next event is t=10; core1 loses the id
  // tie-break at equal clocks, so it may cover [0,10) -> budget 10.
  // t=3, t=6: core1 again; gap to core0's t=10 event -> 7, then 4.
  // t=9 -> core0 at 10: budget 1 (core1 loses ties... core0 wins) etc.
  ASSERT_EQ(b0.size(), 2u);
  ASSERT_EQ(b1.size(), 4u);
  EXPECT_EQ(b0[0], 1u);
  EXPECT_EQ(b1[0], 10u);
  EXPECT_EQ(b1[1], 7u);
  EXPECT_EQ(b1[2], 4u);
  EXPECT_EQ(b1[3], 1u);
  // Core0's second step at t=10: core1 finished at t=9, so no competitor
  // remains and the budget is bounded only by max_cycles (default ~0).
  EXPECT_EQ(b0[1], ~sim::Cycle{0} - 10);
}

TEST(Macrostep, FusionDisabledPinsBudgetToOne) {
  sim::Machine m(2);
  m.set_step_fusion(false);
  std::vector<sim::Cycle> b0, b1;
  m.set_task(0, std::make_unique<BudgetTask>(&b0, 10, 3));
  m.set_task(1, std::make_unique<BudgetTask>(&b1, 3, 5));
  m.run();
  for (sim::Cycle c : b0) EXPECT_EQ(c, 1u);
  for (sim::Cycle c : b1) EXPECT_EQ(c, 1u);
}

TEST(Macrostep, SoloCoreGetsUnboundedBudget) {
  sim::Machine m(1);
  m.set_step_fusion(true);
  std::vector<sim::Cycle> b;
  m.set_task(0, std::make_unique<BudgetTask>(&b, 5, 2));
  m.run(1000);
  ASSERT_EQ(b.size(), 2u);
  // No competing core: the budget is bounded only by max_cycles.
  EXPECT_EQ(b[0], 1000u);
  EXPECT_EQ(b[1], 995u);
}

// ---------------------------------------------------------------------------
// Differential full-system runs: fusion must not change any simulated
// number, on all ten workloads (real contention, aborts, advisory locks).
// ---------------------------------------------------------------------------

void expect_identical_runs(const char* workload, runtime::Scheme scheme) {
  workloads::RunOptions on;
  on.scheme = scheme;
  on.threads = 4;
  on.ops_scale = 0.05;
  on.macrostep = true;
  workloads::RunOptions off = on;
  off.macrostep = false;

  const auto a = workloads::run_workload(workload, on);
  const auto b = workloads::run_workload(workload, off);

  EXPECT_EQ(a.cycles, b.cycles) << workload;
  EXPECT_EQ(a.total_ops, b.total_ops) << workload;
  EXPECT_EQ(a.totals.commits, b.totals.commits) << workload;
  EXPECT_EQ(a.totals.total_aborts(), b.totals.total_aborts()) << workload;
  EXPECT_EQ(a.totals.aborts_conflict, b.totals.aborts_conflict) << workload;
  EXPECT_EQ(a.totals.tx_instrs, b.totals.tx_instrs) << workload;
  EXPECT_EQ(a.totals.interp_instrs, b.totals.interp_instrs) << workload;
  EXPECT_EQ(a.totals.cycles_useful_tx, b.totals.cycles_useful_tx) << workload;
  EXPECT_EQ(a.totals.cycles_wasted_tx, b.totals.cycles_wasted_tx) << workload;
  EXPECT_EQ(a.totals.cycles_lock_wait, b.totals.cycles_lock_wait) << workload;
  EXPECT_EQ(a.totals.alp_acquires, b.totals.alp_acquires) << workload;
  EXPECT_EQ(a.totals.irrevocable_entries, b.totals.irrevocable_entries)
      << workload;
  EXPECT_EQ(a.totals.l1_hits, b.totals.l1_hits) << workload;
  EXPECT_EQ(a.totals.l1_misses, b.totals.l1_misses) << workload;
}

TEST(MacrostepDifferential, Ssca2Baseline) {
  expect_identical_runs("ssca2", runtime::Scheme::kBaseline);
}

TEST(MacrostepDifferential, Ssca2Staggered) {
  expect_identical_runs("ssca2", runtime::Scheme::kStaggered);
}

TEST(MacrostepDifferential, ListHiStaggered) {
  expect_identical_runs("list-hi", runtime::Scheme::kStaggered);
}

TEST(MacrostepDifferential, ListHiStaggeredSW) {
  expect_identical_runs("list-hi", runtime::Scheme::kStaggeredSW);
}

TEST(MacrostepDifferential, Genome) {
  expect_identical_runs("genome", runtime::Scheme::kStaggered);
}

TEST(MacrostepDifferential, Intruder) {
  expect_identical_runs("intruder", runtime::Scheme::kStaggered);
}

TEST(MacrostepDifferential, Kmeans) {
  expect_identical_runs("kmeans", runtime::Scheme::kStaggered);
}

TEST(MacrostepDifferential, Labyrinth) {
  expect_identical_runs("labyrinth", runtime::Scheme::kStaggered);
}

TEST(MacrostepDifferential, Vacation) {
  expect_identical_runs("vacation", runtime::Scheme::kStaggeredSW);
}

TEST(MacrostepDifferential, ListLo) {
  expect_identical_runs("list-lo", runtime::Scheme::kStaggered);
}

TEST(MacrostepDifferential, Tsp) {
  expect_identical_runs("tsp", runtime::Scheme::kStaggered);
}

TEST(MacrostepDifferential, Memcached) {
  expect_identical_runs("memcached", runtime::Scheme::kStaggered);
}

}  // namespace
}  // namespace st
