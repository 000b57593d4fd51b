// Microbenchmarks (google-benchmark) of simulator primitives: these bound
// how much host time one simulated event costs and guard against
// performance regressions in the substrate itself.
#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "htm/htm.hpp"
#include "interp/interp.hpp"
#include "ir/builder.hpp"
#include "stagger/advisory_locks.hpp"
#include "workloads/runner.hpp"

namespace {

using namespace st;

struct SimFixture {
  sim::MemConfig cfg;
  sim::MachineStats stats{16};
  sim::Heap heap{17, 1 << 22};
  std::unique_ptr<sim::MemorySystem> mem;
  std::unique_ptr<htm::HtmSystem> htm;

  SimFixture() {
    cfg.cores = 16;
    mem = std::make_unique<sim::MemorySystem>(cfg, stats);
    htm = std::make_unique<htm::HtmSystem>(heap, *mem, stats);
  }
};

void BM_HeapLoadStore(benchmark::State& state) {
  sim::Heap heap(1, 1 << 20);
  const sim::Addr a = heap.alloc(0, 64);
  std::uint64_t v = 0;
  for (auto _ : state) {
    heap.store(a, ++v, 8);
    benchmark::DoNotOptimize(heap.load(a, 8));
  }
}
BENCHMARK(BM_HeapLoadStore);

void BM_L1Hit(benchmark::State& state) {
  SimFixture f;
  const sim::Addr a = f.heap.alloc(16, 8);
  f.mem->access(0, a, 8, sim::AccessKind::Load, false, 0);
  for (auto _ : state)
    benchmark::DoNotOptimize(
        f.mem->access(0, a, 8, sim::AccessKind::Load, false, 0));
}
BENCHMARK(BM_L1Hit);

void BM_CoherencePingPong(benchmark::State& state) {
  SimFixture f;
  const sim::Addr a = f.heap.alloc(16, 8);
  for (auto _ : state) {
    f.mem->access(0, a, 8, sim::AccessKind::Store, false, 0);
    f.mem->access(1, a, 8, sim::AccessKind::Store, false, 0);
  }
}
BENCHMARK(BM_CoherencePingPong);

void BM_TxCommitRoundTrip(benchmark::State& state) {
  SimFixture f;
  const sim::Addr a = f.heap.alloc(16, 8);
  std::uint64_t v = 0;
  for (auto _ : state) {
    f.htm->begin(0);
    f.htm->store(0, a, ++v, 8, 1);
    benchmark::DoNotOptimize(f.htm->commit(0));
  }
}
BENCHMARK(BM_TxCommitRoundTrip);

void BM_ConflictAbort(benchmark::State& state) {
  SimFixture f;
  const sim::Addr a = f.heap.alloc(16, 8);
  for (auto _ : state) {
    f.htm->begin(0);
    f.htm->load(0, a, 8, 1);
    f.htm->begin(1);
    f.htm->store(1, a, 1, 8, 2);
    f.htm->abort(0);
    f.htm->commit(1);
  }
}
BENCHMARK(BM_ConflictAbort);

void BM_AdvisoryLockAcquireRelease(benchmark::State& state) {
  SimFixture f;
  stagger::AdvisoryLockTable locks(*f.htm, 256);
  for (auto _ : state) {
    benchmark::DoNotOptimize(locks.try_acquire(0, 0x123400));
    locks.release(0);
  }
}
BENCHMARK(BM_AdvisoryLockAcquireRelease);

struct NullEnv final : interp::ExecEnv {
  Mem load(sim::Addr, unsigned, std::uint32_t) override { return {0, 2, true}; }
  Mem store(sim::Addr, std::uint64_t, unsigned, std::uint32_t) override {
    return {0, 2, true};
  }
  Mem nt_load(sim::Addr, unsigned) override { return {0, 2, true}; }
  Mem nt_store(sim::Addr, std::uint64_t, unsigned) override {
    return {0, 2, true};
  }
  Mem alloc(const ir::StructType*, sim::Addr& out, std::uint32_t) override {
    out = 0x10000;
    return {0, 1, true};
  }
  void free_(sim::Addr) override {}
  AlpResult alpoint(std::uint32_t, sim::Addr, std::uint32_t) override {
    return {1, false, true};
  }
};

void BM_InterpreterArithLoop(benchmark::State& state) {
  ir::Module m;
  ir::FunctionBuilder b(m, "loop", {nullptr});
  const ir::Reg i = b.var(b.const_i(0));
  b.while_([&] { return b.cmp_slt(i, b.param(0)); },
           [&] { b.assign(i, b.add(i, b.const_i(1))); });
  b.ret(i);
  m.finalize();
  NullEnv env;
  interp::Interp it(env);
  // Single-stepped (budget 1): every instruction is its own step, as the
  // scheduler does when another core has an event on the very next cycle.
  if (state.range(0) == 1) {
    for (auto _ : state) {
      it.start(b.function(), std::vector<std::uint64_t>{64});
      while (!it.step().finished) {
      }
      benchmark::DoNotOptimize(it.result());
    }
  } else {
    // Fused: one step may retire a whole pure-register run, as the
    // scheduler allows whenever the core owns the near future.
    const sim::Cycle budget = static_cast<sim::Cycle>(state.range(0));
    for (auto _ : state) {
      it.start(b.function(), std::vector<std::uint64_t>{64});
      while (!it.step(budget).finished) {
      }
      benchmark::DoNotOptimize(it.result());
    }
  }
  state.SetItemsProcessed(state.iterations() * 64 * 4);
}
BENCHMARK(BM_InterpreterArithLoop)
    ->Arg(1)        // old single-stepping behaviour
    ->Arg(1 << 20)  // effectively unbounded fusion
    ->ArgName("budget");

// End-to-end smoke of the parallel experiment runner: two tiny full-system
// runs per iteration, scheduled through the pool. Registered as a ctest
// (bench_micro_smoke) at STAGTM_SCALE=0.05 STAGTM_JOBS=2 so CI exercises
// the pooled path on every run.
void BM_ParallelRunnerSmoke(benchmark::State& state) {
  using namespace st::bench;
  for (auto _ : state) {
    workloads::ExperimentRunner pool(env_jobs());
    pool.submit("ssca2", base_options(runtime::Scheme::kBaseline, 2));
    pool.submit("ssca2", base_options(runtime::Scheme::kStaggered, 2));
    for (const auto& r : pool.wait_all())
      benchmark::DoNotOptimize(r.cycles);
  }
}
BENCHMARK(BM_ParallelRunnerSmoke)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
