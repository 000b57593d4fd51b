// Differential tests for the parallel deterministic engine (DESIGN.md §13):
// sharding the event loop across host worker threads must never change a
// simulated result. Every test here compares complete runs — cycles, ops,
// the full per-core counter/histogram set (serialized through the metrics
// JSON writer so nothing is forgotten), the state digest, and the commit
// log byte-for-byte — between host_threads == 1 and parallel configurations.
#include <gtest/gtest.h>

#include <barrier>
#include <cstdio>
#include <cstdlib>
#include <random>
#include <string>
#include <thread>

#include "interp/interp.hpp"
#include "ir/builder.hpp"
#include "multicore.hpp"
#include "obs/metrics.hpp"
#include "workloads/harness.hpp"
#include "workloads/workload.hpp"

namespace st::workloads {
namespace {

/// Serializes everything simulated about a run into one comparable string.
/// Host-side fields (wall_ms, host_threads, par) are
/// deliberately excluded — they are allowed to differ.
std::string sim_fingerprint(const RunResult& r) {
  char* buf = nullptr;
  std::size_t len = 0;
  std::FILE* f = open_memstream(&buf, &len);
  std::fprintf(f, "workload=%s scheme=%s threads=%u cycles=%llu ops=%llu\n",
               r.workload.c_str(), r.scheme.c_str(), r.threads,
               static_cast<unsigned long long>(r.cycles),
               static_cast<unsigned long long>(r.total_ops));
  std::fprintf(f, "la=%.17g lp=%.17g dropped=%llu\n", r.conflict_addr_locality,
               r.conflict_pc_locality,
               static_cast<unsigned long long>(r.abort_trace_dropped));
  std::fprintf(f, "digest=%016llx invariant=[%s]\n",
               static_cast<unsigned long long>(r.state_digest),
               r.invariant_failure.c_str());
  obs::write_core_stats_json(f, r.totals);
  for (const auto& cs : r.per_core) obs::write_core_stats_json(f, cs);
  if (r.commit_log) {
    for (const auto& rec : *r.commit_log) {
      std::fprintf(f, "\nc=%llu core=%u ab=%u att=%u irr=%d res=%llx args=",
                   static_cast<unsigned long long>(rec.cycle), rec.core,
                   rec.ab_id, rec.attempts, rec.irrevocable,
                   static_cast<unsigned long long>(rec.result));
      for (std::uint64_t a : rec.args) std::fprintf(f, "%llx,",
                                                    static_cast<unsigned long long>(a));
    }
  }
  std::fclose(f);
  std::string s(buf, len);
  std::free(buf);
  return s;
}

RunOptions base_options() {
  RunOptions opt;
  opt.scheme = runtime::Scheme::kStaggered;
  opt.threads = 16;
  opt.ops_scale = 0.05;
  opt.checked = true;          // record commit log + digest
  opt.trace_path = "";         // tracing off regardless of environment
  opt.sched = check::SchedConfig{};  // deterministic schedule
  opt.macrostep = true;
  return opt;
}

/// Commit-log byte comparison across every registered workload: the serial
/// loop vs a 4-worker window engine must serialize identically.
TEST(ParallelMachine, AllWorkloadsBitIdenticalAtFourHostThreads) {
  ST_SKIP_WITHOUT_MULTICORE();
  for (const auto& [name, factory] : workload_registry()) {
    RunOptions opt = base_options();
    opt.host_threads = 1;
    const RunResult serial = run_workload(name, opt);
    ASSERT_NE(serial.commit_log, nullptr) << name;
    EXPECT_TRUE(serial.invariant_failure.empty())
        << name << ": " << serial.invariant_failure;
    opt.host_threads = 4;
    const RunResult par = run_workload(name, opt);
    EXPECT_EQ(par.host_threads, 4u) << name;
    EXPECT_EQ(sim_fingerprint(serial), sim_fingerprint(par)) << name;
  }
}

/// Randomized differential fuzz over the host-side configuration space:
/// worker count in {2, 4, 8}, eager vs lazy conflict detection,
/// macro-stepping, scheme, and seed. Fixed fuzz seed so failures reproduce;
/// each sample is checked against its own serial twin.
TEST(ParallelMachine, FuzzHostThreadsAcrossHtmModes) {
  ST_SKIP_WITHOUT_MULTICORE();
  const char* names[] = {"list-hi", "kmeans", "ssca2", "intruder", "vacation"};
  const runtime::Scheme schemes[] = {runtime::Scheme::kBaseline,
                                     runtime::Scheme::kStaggered,
                                     runtime::Scheme::kStaggeredSW};
  std::mt19937 rng(20260808);
  for (int i = 0; i < 10; ++i) {
    RunOptions opt = base_options();
    opt.scheme = schemes[rng() % 3];
    opt.lazy_htm = (rng() % 2) != 0;
    opt.macrostep = (rng() % 2) != 0;
    opt.seed = 1 + rng() % 5;
    const std::string name = names[rng() % 5];
    const unsigned workers = 1u << (1 + rng() % 3);  // 2, 4, 8

    opt.host_threads = 1;
    const RunResult serial = run_workload(name, opt);
    opt.host_threads = workers;
    const RunResult par = run_workload(name, opt);
    EXPECT_EQ(sim_fingerprint(serial), sim_fingerprint(par))
        << name << " workers=" << workers << " lazy=" << opt.lazy_htm
        << " macrostep=" << opt.macrostep << " seed=" << opt.seed;
  }
}

/// Memory-free env: the functions below only compute and call.
struct PureEnv final : interp::ExecEnv {
  Mem load(sim::Addr, unsigned, std::uint32_t) override { return {}; }
  Mem store(sim::Addr, std::uint64_t, unsigned, std::uint32_t) override {
    return {};
  }
  Mem nt_load(sim::Addr, unsigned) override { return {}; }
  Mem nt_store(sim::Addr, std::uint64_t, unsigned) override { return {}; }
  Mem alloc(const ir::StructType*, sim::Addr& out, std::uint32_t) override {
    out = 0;
    return {};
  }
  void free_(sim::Addr) override {}
  AlpResult alpoint(std::uint32_t, sim::Addr, std::uint32_t) override {
    return {};
  }
};

struct InterpRun {
  std::uint64_t result = 0;
  std::uint64_t instrs = 0;
  sim::Cycle cycles = 0;
  bool operator==(const InterpRun&) const = default;
};

InterpRun run_interp(const ir::Function* f, std::uint64_t arg,
                     sim::Cycle budget) {
  PureEnv env;
  interp::Interp it(env);
  it.start(f, std::vector<std::uint64_t>{arg});
  InterpRun r;
  for (;;) {
    const auto s = it.step(budget);
    r.cycles += s.cycles;
    if (s.finished) break;
  }
  r.result = it.result();
  r.instrs = it.instrs_executed();
  return r;
}

/// Interpreters on several host threads share one finalized module, and
/// their first calls into a shared callee happen together. Decoded code is
/// built once at Module::finalize, so the threads only ever read it: every
/// thread must reproduce the single-threaded result, instruction count and
/// cycle total exactly (and TSan must see no race).
TEST(ParallelMachine, ConcurrentFirstTouchOfSharedCallee) {
  ST_SKIP_WITHOUT_MULTICORE();
  ir::Module m;
  ir::FunctionBuilder leaf(m, "leaf", {nullptr});
  leaf.ret(leaf.xor_(leaf.mul(leaf.param(0), leaf.const_i(2654435761)),
                     leaf.const_i(0x5a5a)));
  ir::FunctionBuilder mid(m, "mid", {nullptr});
  mid.ret(mid.add(mid.call(leaf.function(), {mid.param(0)}),
                  mid.call(leaf.function(), {mid.add(mid.param(0),
                                                     mid.const_i(1))})));
  ir::FunctionBuilder top(m, "top", {nullptr});
  const ir::Reg i = top.var(top.const_i(0));
  const ir::Reg acc = top.var(top.const_i(0));
  top.while_([&] { return top.cmp_slt(i, top.param(0)); },
             [&] {
               top.assign(acc, top.add(acc, top.call(mid.function(), {i})));
               top.assign(i, top.add(i, top.const_i(1)));
             });
  top.ret(acc);
  m.finalize();

  constexpr unsigned kThreads = 4;
  constexpr std::uint64_t kIters = 2000;
  const sim::Cycle budgets[kThreads] = {1, 3, 64, sim::Cycle{1} << 20};
  std::vector<InterpRun> got(kThreads);
  std::barrier start(kThreads);
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      start.arrive_and_wait();
      got[t] = run_interp(top.function(), kIters, budgets[t]);
    });
  }
  for (std::thread& th : pool) th.join();

  const InterpRun want = run_interp(top.function(), kIters, 1);
  EXPECT_GT(want.instrs, 6 * kIters);  // three calls and returns per iteration
  for (unsigned t = 0; t < kThreads; ++t)
    EXPECT_EQ(got[t], want) << "thread " << t << " budget " << budgets[t];
}

/// Schedule perturbation must force the serial path: the perturbation hooks
/// reorder steps in ways the window bound cannot see, so the machine runs
/// its serial perturbed loop (zero parallel windows) and still matches the
/// host_threads == 1 execution exactly.
TEST(ParallelMachine, PerturbedScheduleForcesSerialPath) {
  check::SchedConfig sched;
  sched.mode = check::SchedMode::kJitter;
  sched.seed = 11;

  RunOptions opt = base_options();
  opt.sched = sched;
  opt.host_threads = 1;
  const RunResult serial = run_workload("list-hi", opt);
  opt.host_threads = 8;
  const RunResult par = run_workload("list-hi", opt);
  EXPECT_EQ(par.par.windows, 0u)
      << "perturbed schedules must not take the window engine";
  EXPECT_EQ(sim_fingerprint(serial), sim_fingerprint(par));
}

/// Parallel windows do run (and are counted) on an unperturbed multi-core
/// machine with more than one host thread.
TEST(ParallelMachine, WindowCountersPopulated) {
  RunOptions opt = base_options();
  opt.host_threads = 4;
  const RunResult r = run_workload("kmeans", opt);
  EXPECT_GT(r.par.windows, 0u);
  EXPECT_GT(r.par.window_steps, 0u);
  EXPECT_GT(r.par.drain_steps, 0u);
  EXPECT_EQ(r.par.barrier_wait_ns.size(), 4u);
  EXPECT_EQ(r.par.window_cores.samples, r.par.windows);
  EXPECT_LE(r.par.inline_windows, r.par.windows);
  // Every interpreter instruction retires inside exactly one step call,
  // and every step call is either a serial drain step or a window-local
  // advance — so the work-weighted split must partition the run's total
  // instruction count exactly. A leak here would mean the engine stepped
  // a task outside both regimes (or double-counted a delta).
  EXPECT_GT(r.par.window_instrs, 0u);
  EXPECT_GT(r.par.drain_instrs, 0u);
  EXPECT_EQ(r.par.window_instrs + r.par.drain_instrs,
            r.totals.interp_instrs);
}

/// STAGTM_THREADS follows the strict env-knob contract: malformed or
/// out-of-range values terminate with exit code 2 and name the variable.
TEST(ParallelMachineDeathTest, BadStagtmThreadsExitsTwo) {
  EXPECT_EXIT(
      {
        setenv("STAGTM_THREADS", "0", 1);
        sim::Machine::default_host_threads();
      },
      ::testing::ExitedWithCode(2), "STAGTM_THREADS");
  EXPECT_EXIT(
      {
        setenv("STAGTM_THREADS", "257", 1);
        sim::Machine::default_host_threads();
      },
      ::testing::ExitedWithCode(2), "STAGTM_THREADS");
  EXPECT_EXIT(
      {
        setenv("STAGTM_THREADS", "lots", 1);
        sim::Machine::default_host_threads();
      },
      ::testing::ExitedWithCode(2), "STAGTM_THREADS");
}

}  // namespace
}  // namespace st::workloads
