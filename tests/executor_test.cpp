// TxExecutor lifecycle: retry, backoff, irrevocable fallback, advisory-lock
// hygiene, global-lock subscription.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "obs/trace_export.hpp"
#include "test_util.hpp"
#include "workloads/dslib/list.hpp"

namespace st::runtime {
namespace {

using testutil::MiniSystem;
using testutil::ScriptTask;

/// Module with one atomic block: counter increment (ab 0) and a long
/// read-modify-write loop over an array (ab 1) for conflict generation.
struct CounterIr {
  MiniSystem ms;
  const ir::StructType* cnt_t;
  sim::Addr counter = 0;

  explicit CounterIr(Scheme scheme = Scheme::kBaseline, unsigned threads = 2) {
    cnt_t = ms.module.add_type(
        ir::make_struct("counter", {{"v", 0, 8, nullptr}}));
    {
      ir::FunctionBuilder b(ms.module, "ab_inc", {cnt_t});
      const ir::Reg v = b.load_field(b.param(0), cnt_t, "v");
      b.store_field(b.param(0), cnt_t, "v", b.add(v, b.const_i(1)));
      b.ret(v);
      ms.module.add_atomic_block(b.function());
    }
    {
      // Slow increment: burn ~100 instructions between load and store to
      // widen the conflict window.
      ir::FunctionBuilder b(ms.module, "ab_slow_inc", {cnt_t});
      const ir::Reg v = b.load_field(b.param(0), cnt_t, "v");
      const ir::Reg i = b.var(b.const_i(0));
      b.while_([&] { return b.cmp_slt(i, b.const_i(30)); },
               [&] { b.assign(i, b.add(i, b.const_i(1))); });
      b.store_field(b.param(0), cnt_t, "v", b.add(v, b.const_i(1)));
      b.ret(v);
      ms.module.add_atomic_block(b.function());
    }
    ms.boot(scheme, threads);
    counter = ms.sys->heap().alloc_line_aligned(
        ms.sys->heap().setup_arena(), 8);
  }
};

TEST(Executor, SingleTransactionCommitsAndReturnsValue) {
  CounterIr c;
  EXPECT_EQ(c.ms.run_ab(0, {c.counter}), 0u);
  EXPECT_EQ(c.ms.run_ab(0, {c.counter}), 1u);
  EXPECT_EQ(c.ms.sys->heap().load(c.counter, 8), 2u);
  EXPECT_EQ(c.ms.sys->stats().total().commits, 2u);
  EXPECT_EQ(c.ms.sys->stats().total().total_aborts(), 0u);
}

TEST(Executor, ConcurrentIncrementsNeverLoseUpdates) {
  CounterIr c(Scheme::kBaseline, 2);
  std::vector<ScriptTask::Item> items(50, {1, {c.counter}, 10});
  auto t0 = std::make_unique<ScriptTask>(*c.ms.sys, 0, items);
  auto t1 = std::make_unique<ScriptTask>(*c.ms.sys, 1, items);
  c.ms.sys->machine().set_task(0, std::move(t0));
  c.ms.sys->machine().set_task(1, std::move(t1));
  c.ms.sys->run();
  EXPECT_EQ(c.ms.sys->heap().load(c.counter, 8), 100u);
  EXPECT_GT(c.ms.sys->stats().total().total_aborts(), 0u);
}

TEST(Executor, AbortsTriggerBackoffCycles) {
  CounterIr c(Scheme::kBaseline, 2);
  std::vector<ScriptTask::Item> items(60, {1, {c.counter}, 5});
  c.ms.sys->machine().set_task(
      0, std::make_unique<ScriptTask>(*c.ms.sys, 0, items));
  c.ms.sys->machine().set_task(
      1, std::make_unique<ScriptTask>(*c.ms.sys, 1, items));
  c.ms.sys->run();
  const auto t = c.ms.sys->stats().total();
  EXPECT_GT(t.aborts_conflict, 0u);
  EXPECT_GT(t.cycles_backoff, 0u);
  EXPECT_GT(t.cycles_wasted_tx, 0u);
}

TEST(Executor, UsefulCyclesAccrueOnCommit) {
  CounterIr c;
  c.ms.run_ab(0, {c.counter});
  const auto& st = c.ms.sys->stats().core(0);
  EXPECT_GT(st.cycles_useful_tx, 0u);
  EXPECT_EQ(st.cycles_wasted_tx, 0u);
  EXPECT_GT(st.tx_instrs, 0u);
}

TEST(Executor, GlockSubscriptionAbortsCommittingTransaction) {
  CounterIr c;
  auto& htm = c.ms.sys->htm();
  // Simulate an irrevocable holder.
  htm.nontx_cas(1, c.ms.sys->glock_addr(), 0, 2);
  TxExecutor exec(*c.ms.sys, 0);
  exec.start(0, {c.counter});
  // Drive a few steps: the commit-time subscription must observe the held
  // lock and retry, not commit.
  for (int i = 0; i < 200 && !exec.finished(); ++i) exec.step();
  EXPECT_FALSE(exec.finished());
  EXPECT_GT(c.ms.sys->stats().core(0).aborts_glock, 0u);
  // Release; the executor must then commit.
  htm.nontx_store(1, c.ms.sys->glock_addr(), 0, 8);
  while (!exec.finished()) exec.step();
  exec.take_result();
  EXPECT_EQ(c.ms.sys->heap().load(c.counter, 8), 1u);
}

TEST(Executor, FallsBackToIrrevocableAfterMaxRetries) {
  // One core increments while the other holds every hardware attempt
  // hostage by continuously writing the same line non-transactionally.
  CounterIr c(Scheme::kBaseline, 2);
  TxExecutor exec(*c.ms.sys, 0);
  exec.start(1, {c.counter});
  auto& htm = c.ms.sys->htm();
  int steps = 0;
  while (!exec.finished() && steps < 200000) {
    exec.step();
    // Adversary: keep dirtying the counter line from core 1.
    if (steps % 2 == 0 && !htm.active(1))
      htm.plain_store(1, c.counter + 8, steps, 8);
    ++steps;
  }
  ASSERT_TRUE(exec.finished());
  exec.take_result();
  const auto& st = c.ms.sys->stats().core(0);
  EXPECT_EQ(st.irrevocable_entries, 1u);
  EXPECT_GE(st.aborts_conflict, c.ms.sys->config().max_retries);
  EXPECT_EQ(c.ms.sys->heap().load(c.counter, 8), 1u);  // still exactly once
}

TEST(Executor, StaggeredReleasesAdvisoryLockOnCommit) {
  // A staggered run over the shared list must end with no lock held.
  ir::Module* m = nullptr;
  MiniSystem ms;
  m = &ms.module;
  auto lib = workloads::dslib::build_list_lib(*m);
  m->add_atomic_block(lib.insert);
  ms.boot(Scheme::kStaggered, 2);
  const sim::Addr list = workloads::dslib::host_list_new(
      ms.sys->heap(), ms.sys->heap().setup_arena(), lib);
  for (std::uint64_t k = 1; k <= 40; ++k) ms.run_ab(0, {list, 2 * k, 2 * k});
  EXPECT_FALSE(ms.sys->locks().holds_lock(0));
  EXPECT_EQ(workloads::dslib::host_list_check_sorted(ms.sys->heap(), lib, list),
            40u);
}

TEST(Executor, ResultOfCommittedBlockIsReturned) {
  CounterIr c;
  EXPECT_EQ(c.ms.run_ab(1, {c.counter}), 0u);  // slow inc returns old value
  EXPECT_EQ(c.ms.run_ab(1, {c.counter}), 1u);
}

TEST(Executor, TraceTiersAndAttemptsMatchCommitLog) {
  // Pins the lifecycle event stream across all three tiers: per core, the
  // kTxCommit events carry the tier (arg8) and attempt count (a64) that the
  // commit log records, in the same order, and every irrevocable commit
  // follows its kIrrevocable entry with no other commit in between.
  workloads::RunOptions o;
  o.scheme = Scheme::kStaggered;
  o.threads = 4;
  o.ops_scale = 0.05;
  o.max_retries = 1;  // reach both fallback tiers
  o.stm = stm::StmConfig{};
  o.stm.enabled = true;
  o.checked = true;
  o.prof_path = std::string();
  o.sched = check::SchedConfig{};
  const char* dir = std::getenv("TMPDIR");
  const std::string path =
      std::string(dir != nullptr && *dir != '\0' ? dir : "/tmp") +
      "/executor_tiers.trc";
  o.trace_path = path;
  const auto r = workloads::run_workload("list-hi", o);
  ASSERT_TRUE(r.invariant_failure.empty()) << r.invariant_failure;
  ASSERT_NE(r.commit_log, nullptr);

  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  obs::TraceData t;
  std::string err;
  ASSERT_TRUE(obs::read_binary_trace(f, &t, &err)) << err;
  std::fclose(f);
  std::remove(path.c_str());
  ASSERT_EQ(t.cores(), o.threads);

  std::vector<std::vector<const CommitRecord*>> log(t.cores());
  for (const CommitRecord& rec : *r.commit_log)
    log.at(rec.core).push_back(&rec);
  std::uint64_t by_tier[3] = {};
  for (unsigned c = 0; c < t.cores(); ++c) {
    ASSERT_EQ(t.dropped(c), 0u) << "core " << c;
    std::size_t next = 0;
    bool irrevocable = false;
    for (const obs::TraceEvent& e : t.per_core[c].events) {
      if (e.kind == obs::EventKind::kIrrevocable) {
        EXPECT_FALSE(irrevocable) << "core " << c << " cycle " << e.at;
        irrevocable = true;
      }
      if (e.kind != obs::EventKind::kTxCommit) continue;
      ASSERT_LT(next, log[c].size()) << "core " << c;
      const CommitRecord& rec = *log[c][next++];
      const unsigned tier = static_cast<unsigned>(rec.tier);
      ASSERT_LT(tier, 3u);
      ++by_tier[tier];
      EXPECT_EQ(e.arg8, tier) << "core " << c << " cycle " << e.at;
      EXPECT_EQ(e.a64, rec.attempts) << "core " << c << " cycle " << e.at;
      EXPECT_EQ(e.a32, rec.ab_id) << "core " << c << " cycle " << e.at;
      EXPECT_EQ(irrevocable, tier == 1) << "core " << c << " cycle " << e.at;
      irrevocable = false;
    }
    EXPECT_EQ(next, log[c].size()) << "core " << c;
    EXPECT_FALSE(irrevocable) << "core " << c;
  }
  for (unsigned tier = 0; tier < 3; ++tier)
    EXPECT_GT(by_tier[tier], 0u) << "tier " << tier << " never committed";
}

TEST(ExecutorDeath, StartWhileBusyDies) {
  CounterIr c;
  TxExecutor exec(*c.ms.sys, 0);
  exec.start(0, {c.counter});
  EXPECT_DEATH(exec.start(0, {c.counter}), "busy");
}

TEST(ExecutorDeath, StepWhenIdleDies) {
  CounterIr c;
  TxExecutor exec(*c.ms.sys, 0);
  EXPECT_DEATH(exec.step(), "idle");
}

}  // namespace
}  // namespace st::runtime
