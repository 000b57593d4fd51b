// Tests of the benchmark library: the traced runner simulates exactly what
// workloads::run_workload does, observers change no simulated result, and
// the deterministic metrics are a function of the seed.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>

#include "perfbench.hpp"

namespace perfbench {
namespace {

// Small enough for a quick test, large enough for aborts, lock waits and
// STM fallbacks to occur in every workload.
constexpr double kTestScale = 0.02;

std::string scratch_dir() {
  const std::string d = PERFBENCH_TEST_SCRATCH;
  std::filesystem::create_directories(d);
  return d;
}

std::vector<SimResult> run_all(const std::vector<Cell>& cells) {
  std::vector<SimResult> out;
  for (const Cell& c : cells)
    out.push_back(
        SimResult::of(st::workloads::run_workload(c.program, c.opt)));
  return out;
}

TEST(Perfbench, WorkloadsHavePairedCells) {
  for (const std::string& w : workload_names()) {
    const auto cells = make_cells(w, 1, kTestScale, scratch_dir());
    ASSERT_FALSE(cells.empty()) << w;
    ASSERT_EQ(cells.size() % 2, 0u) << w;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      EXPECT_EQ(cells[i].pair, i / 2) << w;
      EXPECT_EQ(cells[i].treatment, i % 2 == 1) << w;
      EXPECT_EQ(cells[i].opt.threads, 16u) << w;
      EXPECT_EQ(cells[i].opt.host_threads, 1u) << w;
    }
  }
  EXPECT_EQ(make_cells("paper-fig7", 1, 1, "").size(), 20u);
  EXPECT_TRUE(make_cells("no-such-workload", 1, 1, "").empty());
}

TEST(Perfbench, TracedRunMatchesRunWorkloadOnEveryCell) {
  for (const std::string& w : workload_names()) {
    for (const Cell& cell : make_cells(w, 3, kTestScale, scratch_dir())) {
      SCOPED_TRACE(w + " " + cell.program + " " +
                   st::runtime::scheme_name(cell.opt.scheme));
      const SimResult ref =
          SimResult::of(st::workloads::run_workload(cell.program, cell.opt));
      const TracedRun t = run_traced(cell);
      EXPECT_TRUE(same_sim(ref, t.sim));
      EXPECT_EQ(fingerprint(ref), fingerprint(t.sim));
      EXPECT_EQ(check_result(cell, t.sim), "");
      EXPECT_GT(t.counts.step_calls, 0u);
      EXPECT_GE(t.counts.task_steps, t.counts.step_calls);
      EXPECT_EQ(t.counts.trace_dropped, 0u);
      EXPECT_EQ(t.counts.prof_dropped, 0u);
      EXPECT_EQ(t.counts.trace_events > 0, cell.observed);
    }
  }
}

TEST(Perfbench, TracedTimesCloseOnWall) {
  LayerTimes sum;
  for (const Cell& cell :
       make_cells("observed", 1, kTestScale, scratch_dir())) {
    const LayerTimes t = run_traced(cell).times;
    const double parts = t.build_ir_s + t.compile_s + t.system_init_s +
                         t.setup_s + t.next_op_s + t.step_s + t.loop_self_s +
                         t.verify_s + t.export_s + t.unattributed_s;
    EXPECT_NEAR(parts, t.wall_s, 1e-9);
    EXPECT_GT(t.export_s, 0.0);
    sum.add(t);
  }
  // The untimed gaps take well under a millisecond per cell; the slack
  // absorbs a host preemption landing in one of them. Leaving a layer
  // untimed (the observer rings alone take tens of ms) exceeds it.
  EXPECT_LT(std::abs(sum.unattributed_s), 0.05 * sum.wall_s + 0.02);
}

TEST(Perfbench, ObservedCellsMatchUnobservedRuns) {
  const auto cells = make_cells("observed", 2, kTestScale, scratch_dir());
  for (const Cell& cell : cells) {
    SCOPED_TRACE(cell.program + " " +
                 st::runtime::scheme_name(cell.opt.scheme));
    const SimResult on =
        SimResult::of(st::workloads::run_workload(cell.program, cell.opt));
    EXPECT_EQ(check_result(cell, on), "");
    Cell plain = cell;
    plain.opt.trace_path = "";
    plain.opt.prof_path = "";
    plain.observed = false;
    const SimResult off =
        SimResult::of(st::workloads::run_workload(plain.program, plain.opt));
    EXPECT_TRUE(same_sim(on, off));
  }
}

TEST(Perfbench, ObservedCheckCatchesMissingFiles) {
  const auto cells = make_cells("observed", 2, kTestScale, scratch_dir());
  const Cell& cell = cells.front();
  const SimResult r =
      SimResult::of(st::workloads::run_workload(cell.program, cell.opt));
  ASSERT_EQ(check_result(cell, r), "");
  std::filesystem::remove(*cell.opt.prof_path);
  EXPECT_NE(check_result(cell, r), "");
  SimResult short_run = r;
  short_run.totals.commits -= 1;
  EXPECT_NE(check_result(cells.back(), short_run), "");
}

TEST(Perfbench, DeterministicMetricsFollowTheSeed) {
  const auto a = make_cells("hybrid-fallback", 5, kTestScale, "");
  const auto first = run_all(a);
  const auto second = run_all(a);
  const SimMetrics m1 = sim_metrics(a, first);
  const SimMetrics m2 = sim_metrics(a, second);
  EXPECT_EQ(m1.sim_cycles, m2.sim_cycles);
  EXPECT_EQ(m1.aborts_per_commit, m2.aborts_per_commit);
  EXPECT_EQ(m1.sim_speedup_hmean, m2.sim_speedup_hmean);
  EXPECT_EQ(m1.irrevocable_pct, m2.irrevocable_pct);
  EXPECT_GT(m1.sim_cycles, 0);
  EXPECT_GT(m1.sim_speedup_hmean, 0);
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_EQ(fingerprint(first[i]), fingerprint(second[i]));

  const auto b = make_cells("hybrid-fallback", 6, kTestScale, "");
  const auto other = run_all(b);
  bool differs = false;
  for (std::size_t i = 0; i < a.size(); ++i)
    differs |= fingerprint(first[i]) != fingerprint(other[i]);
  EXPECT_TRUE(differs);
}

TEST(Perfbench, HostTimesArePositive) {
  for (const Cell& cell : make_cells("hybrid-fallback", 1, kTestScale, ""))
    EXPECT_GT(time_setup(cell), 0.0);
  EXPECT_GT(reference_kernel_s(), 0.0);
}

}  // namespace
}  // namespace perfbench
