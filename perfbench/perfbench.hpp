// The repository benchmark: workload cells, the checks every simulation must
// pass, set-up timing, and a traced runner that splits host time across the
// simulator's layers. main.cpp adds the command line and the timing loop;
// perfbench_test.cpp checks this library.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/stats.hpp"
#include "workloads/harness.hpp"

namespace perfbench {

using st::workloads::RunOptions;
using st::workloads::RunResult;

/// Ops multiplier of every cell: the bench binaries' default STAGTM_SCALE.
inline constexpr double kScale = 0.25;

/// One simulation of a workload: a registered program under one
/// configuration. Cells come in control/treatment pairs (same `pair`).
struct Cell {
  std::string program;  // workloads::make_workload name
  RunOptions opt;
  std::size_t pair = 0;
  bool treatment = false;
  /// Trace and provenance files are written and must read back cleanly.
  bool observed = false;
};

/// The benchmark's workload names, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

/// The cells of `workload` at `seed`. Observed cells write their files
/// under `scratch_dir`. Returns an empty list for an unknown name.
std::vector<Cell> make_cells(const std::string& workload, std::uint64_t seed,
                             double scale, const std::string& scratch_dir);

/// The simulated outcome of one cell: everything that must be identical for
/// a given (cell, seed) no matter how it was run.
struct SimResult {
  std::uint64_t cycles = 0;
  std::uint64_t total_ops = 0;
  std::vector<st::sim::CoreStats> per_core;
  st::sim::CoreStats totals;

  static SimResult of(const RunResult& r);
  double throughput() const;
};

/// True when cycles, ops and every registered CoreStats counter and
/// histogram agree core by core.
bool same_sim(const SimResult& a, const SimResult& b);

/// Order-sensitive hash of the fields same_sim compares.
std::uint64_t fingerprint(const SimResult& r);

/// Empty when `r` passes the per-simulation checks (commits equal the
/// submitted ops; an observed cell's trace and prof files read back with
/// nothing dropped), else the first failure.
std::string check_result(const Cell& cell, const SimResult& r);

/// Host seconds of one fresh set-up of `cell`: make_workload,
/// Workload::build_ir, stagger::compile, the TxSystem constructor and
/// Workload::setup. Runs no simulated cycle.
double time_setup(const Cell& cell);

/// Host seconds of one run of a fixed reference kernel that shares no code
/// with the simulator: a walk around a cached 1 MB random cycle and a branchy
/// integer loop. Its time tracks the host's current speed.
double reference_kernel_s();

/// Deterministic metrics of one pass over a workload's cells.
struct SimMetrics {
  double sim_cycles = 0;
  double aborts_per_commit = 0;
  double sim_speedup_hmean = 0;  // treatment over control, per pair
  double irrevocable_pct = 0;
};
SimMetrics sim_metrics(const std::vector<Cell>& cells,
                       const std::vector<SimResult>& results);

/// Host time of one traced simulation, split at the calls into each layer.
/// The `_s` fields are self times and together with `unattributed_s` sum to
/// `wall_s` (the interval RunResult::wall_ms covers).
struct LayerTimes {
  double wall_s = 0;
  double build_ir_s = 0;     // Workload::build_ir
  double compile_s = 0;      // stagger::compile
  double system_init_s = 0;  // TxSystem constructor
  double setup_s = 0;        // Workload::setup
  double next_op_s = 0;      // Workload::next_op + on_result
  double step_s = 0;         // TxExecutor::step (estimated from samples)
  double loop_self_s = 0;    // Machine::run minus the task steps
  double verify_s = 0;       // Workload::verify
  double export_s = 0;       // trace + prof export
  double unattributed_s = 0;

  void add(const LayerTimes& o);
};

/// Per-layer counts of one traced simulation.
struct LayerCounts {
  std::uint64_t task_steps = 0;  // CoreTask::step calls by Machine::run
  std::uint64_t step_calls = 0;  // TxExecutor::step calls
  std::uint64_t trace_events = 0;
  std::uint64_t trace_dropped = 0;
  std::uint64_t prof_blames = 0;
  std::uint64_t prof_dropped = 0;

  void add(const LayerCounts& o);
};

struct TracedRun {
  SimResult sim;
  LayerTimes times;
  LayerCounts counts;
};

/// Runs `cell` through a copy of workloads::run_workload whose core task
/// mirrors the harness's WorkloadThread, timing the calls into each layer.
/// TxExecutor::step runs tens of millions of times per workload, so it is
/// timed on about one call in 16, chosen at random, and its total is scaled
/// up from the sample. Simulated results are those of run_workload (checked
/// by the tests).
TracedRun run_traced(const Cell& cell);

}  // namespace perfbench
