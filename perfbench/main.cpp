// Command-line program of the repository benchmark (see README.md).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --scratch <dir> [--commit <id>]
//
// Runs the workload's simulations one at a time on this thread, pass after
// pass, for about --seconds. Every simulation is checked. The report goes
// to stdout and ends with one JSON line: {"correct", "attempted", "failed",
// "metrics"}. With --trace 0 the metrics are the end-to-end ones; with
// --trace 1 each pass is run untraced and then traced, and the metrics are
// the per-layer ones.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "interp/jit.hpp"
#include "obs/metrics.hpp"
#include "perfbench.hpp"
#include "runtime/tx_system.hpp"

extern char** environ;

namespace {

using namespace perfbench;
using Clock = std::chrono::steady_clock;

/// A traced pass's layer self times must sum to its wall time within this
/// share of it; the rest is printed as trace.unattributed_s.
constexpr double kClosureTolerance = 0.02;

/// reference_kernel_s()'s median, timed between simulations, on the host
/// where the baselines in README.md were recorded. End-to-end host times are
/// scaled by this over the median timed in the run, so they read in that
/// host's seconds and move less when a shared host slows down for minutes.
constexpr double kReferenceKernelS = 0.0115;

/// The paper's harmonic-mean Staggered/HTM gain at 16 cores (Fig. 7).
constexpr double kPaperHmean = 1.24;

[[noreturn]] void refuse(const std::string& why) {
  std::fprintf(stderr, "perfbench: %s\n", why.c_str());
  std::exit(2);
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --scratch <dir> [--commit <id>]\n",
               why);
  std::exit(2);
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string scratch;
  std::string commit = "unknown";
};

std::uint64_t parse_u64(const char* flag, const std::string& v) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long n = std::strtoull(v.c_str(), &end, 10);
  if (v.empty() || v[0] == '-' || *end != '\0' || errno != 0)
    usage((std::string(flag) + " needs a non-negative integer").c_str());
  return n;
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string v = argv[i + 1];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = parse_u64("--seed", v);
      have_seed = true;
    } else if (flag == "--seconds") {
      a.seconds = static_cast<double>(parse_u64("--seconds", v));
      have_seconds = a.seconds >= 1;
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      a.trace = v == "1";
      have_trace = true;
    } else if (flag == "--scratch") {
      a.scratch = v;
    } else if (flag == "--commit") {
      a.commit = v;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (a.workload.empty() || !have_seed || !have_seconds || !have_trace ||
      a.scratch.empty())
    usage("--workload, --seed, --seconds (>= 1), --trace and --scratch are "
          "required");
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), a.workload) == names.end())
    usage(("unknown workload " + a.workload).c_str());
  return a;
}

/// Every STAGTM_* knob changes the program measured (RunOptions and
/// RuntimeConfig read them at construction), and no workload sets one.
void guard_environment() {
  std::string stray;
  for (char** e = environ; *e != nullptr; ++e)
    if (std::strncmp(*e, "STAGTM_", 7) == 0)
      stray += std::string(" ") +
               std::string(*e, std::strcspn(*e, "="));
  if (!stray.empty())
    refuse("refusing to run with STAGTM_* variables set:" + stray);
}

void guard_build() {
#ifndef NDEBUG
  refuse("refusing to time a build with assertions on (Debug)");
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__) || \
    defined(PERFBENCH_SANITIZED)
  refuse("refusing to time a sanitizer build");
#endif
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Debug") == 0)
    refuse("refusing to time a Debug build");
}

const char* compiler() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;
};

class Bench {
 public:
  explicit Bench(std::vector<Cell> cells)
      : cells_(std::move(cells)), ref_(cells_.size()), times_(cells_.size()) {}

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  const std::vector<Cell>& cells() const { return cells_; }
  const std::vector<SimResult>& reference() const { return ref_; }

  std::size_t passes() const { return passes_; }

  /// Reference-host seconds per host second right now: below 1 while the
  /// host runs slower than the reference host did.
  double host_speed() const {
    return kReferenceKernelS / median(kernel_s_);
  }
  double kernel_median_s() const { return median(kernel_s_); }
  std::size_t kernel_samples() const { return kernel_s_.size(); }

  /// Host seconds of a workload pass: per cell, the median over the
  /// untraced passes, summed over the cells. Taking each cell's median
  /// separately keeps a burst of host noise within one simulation from
  /// moving the figure.
  double wall_s() const {
    return sum_of_medians([](const CellTimes& t, std::size_t k) {
      return t.wall[k];
    });
  }
  double setup_s() const {
    return sum_of_medians([](const CellTimes& t, std::size_t k) {
      return t.setup[k];
    });
  }
  /// Simulate phase: wall minus the set-up timed just before it.
  double simulate_s() const {
    return sum_of_medians([](const CellTimes& t, std::size_t k) {
      return t.wall[k] - t.setup[k];
    });
  }

  /// Times the reference kernel and a fresh set-up of each cell, then runs
  /// the cell through workloads::run_workload.
  void untraced_pass() {
    for (std::size_t i = 0; i < cells_.size(); ++i) {
      const Cell& cell = cells_[i];
      ++attempted_;
      kernel_s_.push_back(reference_kernel_s());
      try {
        const double setup = time_setup(cell);
        clear_files(cell);
        const RunResult r =
            st::workloads::run_workload(cell.program, cell.opt);
        times_[i].setup.push_back(setup);
        times_[i].wall.push_back(r.wall_ms / 1000.0);
        check(i, SimResult::of(r));
        if (first_pass_)
          std::printf("  %-10s %-9s cycles %9llu  ops %6llu  wall %7.1f ms\n",
                      cell.program.c_str(), r.scheme.c_str(),
                      static_cast<unsigned long long>(r.cycles),
                      static_cast<unsigned long long>(r.total_ops), r.wall_ms);
      } catch (const std::exception& e) {
        fail(cell, std::string("threw: ") + e.what());
      }
    }
    double wall = 0;
    for (const CellTimes& t : times_)
      if (t.wall.size() > passes_) wall += t.wall[passes_];
    std::printf("pass %zu: wall %.4f s\n", passes_ + 1, wall);
    first_pass_ = false;
    ++passes_;
  }

  /// Runs each cell through run_traced.
  LayerTimes traced_pass(LayerCounts* counts) {
    LayerTimes sum;
    for (std::size_t i = 0; i < cells_.size(); ++i) {
      const Cell& cell = cells_[i];
      ++attempted_;
      try {
        clear_files(cell);
        const TracedRun t = run_traced(cell);
        sum.add(t.times);
        if (counts != nullptr) counts->add(t.counts);
        check(i, t.sim);
      } catch (const std::exception& e) {
        fail(cell, std::string("threw: ") + e.what());
      }
    }
    return sum;
  }

 private:
  struct CellTimes {
    std::vector<double> wall, setup;  // one sample per untraced pass
  };

  template <typename F>
  double sum_of_medians(F sample) const {
    double sum = 0;
    for (const CellTimes& t : times_) {
      std::vector<double> v;
      for (std::size_t k = 0; k < t.wall.size(); ++k)
        v.push_back(sample(t, k));
      sum += median(v);
    }
    return sum;
  }

  void fail(const Cell& cell, const std::string& why) {
    ++failed_;
    std::fprintf(stderr, "FAILED %s %s: %s\n", cell.program.c_str(),
                 st::runtime::scheme_name(cell.opt.scheme), why.c_str());
  }

  /// A stale file from an earlier pass must not pass the read-back check.
  static void clear_files(const Cell& cell) {
    if (!cell.observed) return;
    std::remove(cell.opt.trace_path->c_str());
    std::remove(cell.opt.prof_path->c_str());
  }

  /// The simulation checks, plus: every run of a cell gives the simulated
  /// result of its first run.
  void check(std::size_t i, const SimResult& s) {
    std::string why = check_result(cells_[i], s);
    if (why.empty() && ref_[i].per_core.empty())
      ref_[i] = s;
    else if (why.empty() && !same_sim(ref_[i], s))
      why = "simulated result differs from the cell's first run";
    if (!why.empty()) fail(cells_[i], why);
  }

  std::vector<Cell> cells_;
  std::vector<SimResult> ref_;
  std::vector<CellTimes> times_;
  std::vector<double> kernel_s_;  // one sample before each untraced cell
  std::size_t passes_ = 0;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool first_pass_ = true;
};

double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

std::vector<Metric> end_to_end(const Bench& b, bool paper_traffic) {
  double instrs = 0;
  for (const SimResult& r : b.reference())
    instrs += static_cast<double>(r.totals.interp_instrs);
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const SimMetrics s = sim_metrics(b.cells(), b.reference());
  const double speed = b.host_speed();
  auto raw = [&](double v) {
    char note[96];
    std::snprintf(note, sizeof note,
                  " (raw %.4f; per-cell medians of %zu passes)", v, b.passes());
    return std::string(note);
  };
  const double mips = ratio(instrs / 1e6, b.simulate_s());
  char paper[64];
  std::snprintf(paper, sizeof paper, " (paper Fig. 7: %.2f)", kPaperHmean);
  return {
      {"wall_s", b.wall_s() * speed, "s", raw(b.wall_s())},
      {"setup_s", b.setup_s() * speed, "s", raw(b.setup_s())},
      {"sim_minstr_per_s", mips / speed, "Minstr/s", raw(mips)},
      {"peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MB", ""},
      {"sim_cycles", s.sim_cycles, "cycles", ""},
      {"aborts_per_commit", s.aborts_per_commit, "ratio", ""},
      {"sim_speedup_hmean", s.sim_speedup_hmean, "ratio",
       paper_traffic ? paper : ""},
      {"irrevocable_pct", s.irrevocable_pct, "%", ""},
  };
}

std::vector<Metric> per_layer(const Bench& b,
                              const std::vector<LayerTimes>& traced,
                              const LayerCounts& n) {
  auto med = [&](double LayerTimes::*f) {
    std::vector<double> v;
    for (const LayerTimes& t : traced) v.push_back(t.*f);
    return median(v);
  };
  st::sim::CoreStats t;
  for (const SimResult& r : b.reference())
    st::obs::merge_core_stats(t, r.totals);
  auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  const double all_cycles =
      d(t.cycles_useful_tx + t.cycles_wasted_tx + t.cycles_lock_wait +
        t.cycles_backoff + t.cycles_irrevocable + t.cycles_nontx);
  const double stm_attempts =
      d(t.stm_commits + t.stm_aborts_validation + t.stm_aborts_lock +
        t.stm_aborts_glock);
  const double traced_wall = med(&LayerTimes::wall_s);
  return {
      {"workloads.build_ir_s", med(&LayerTimes::build_ir_s), "s", ""},
      {"stagger.compile_s", med(&LayerTimes::compile_s), "s", ""},
      {"runtime.system_init_s", med(&LayerTimes::system_init_s), "s", ""},
      {"workloads.setup_s", med(&LayerTimes::setup_s), "s", ""},
      {"workloads.next_op_s", med(&LayerTimes::next_op_s), "s", ""},
      {"workloads.verify_s", med(&LayerTimes::verify_s), "s", ""},
      {"runtime.step_s", med(&LayerTimes::step_s), "s",
       " (scaled up from sampled calls)"},
      {"runtime.step_calls", d(n.step_calls), "count", ""},
      {"sim.loop_self_s", med(&LayerTimes::loop_self_s), "s", ""},
      {"sim.steps", d(n.task_steps), "count", ""},
      {"interp.instrs", d(t.interp_instrs), "count", ""},
      {"interp.instrs_per_step", ratio(d(t.interp_instrs), d(n.step_calls)),
       "ratio", ""},
      {"sim.l1_miss_ratio", ratio(d(t.l1_misses), d(t.l1_hits + t.l1_misses)),
       "ratio", ""},
      {"sim.dir_probes", d(t.dir_probes), "count", ""},
      {"htm.aborts_conflict", d(t.aborts_conflict), "count", ""},
      {"htm.aborts_capacity", d(t.aborts_capacity), "count", ""},
      {"htm.aborts_glock", d(t.aborts_glock), "count", ""},
      {"htm.useful_ratio",
       ratio(d(t.cycles_useful_tx), d(t.cycles_useful_tx + t.cycles_wasted_tx)),
       "ratio", ""},
      {"stagger.alp_executed", d(t.alp_executed), "count", ""},
      {"stagger.alp_acquires", d(t.alp_acquires), "count", ""},
      {"stagger.alp_timeouts", d(t.alp_timeouts), "count", ""},
      {"stagger.lock_wait_share", ratio(d(t.cycles_lock_wait), all_cycles),
       "ratio", ""},
      {"stm.commits", d(t.stm_commits), "count", ""},
      {"stm.aborts_validation", d(t.stm_aborts_validation), "count", ""},
      {"stm.aborts_lock", d(t.stm_aborts_lock), "count", ""},
      {"stm.commit_ratio", ratio(d(t.stm_commits), stm_attempts), "ratio", ""},
      {"runtime.irrevocable_entries", d(t.irrevocable_entries), "count", ""},
      {"runtime.backoff_cycles", d(t.cycles_backoff), "cycles", ""},
      {"obs.export_s", med(&LayerTimes::export_s), "s", ""},
      {"obs.trace_events", d(n.trace_events), "count", ""},
      {"obs.trace_dropped", d(n.trace_dropped), "count", ""},
      {"obs.prof_blames", d(n.prof_blames), "count", ""},
      {"obs.prof_dropped", d(n.prof_dropped), "count", ""},
      {"trace.wall_s", traced_wall, "s",
       " (median of " + std::to_string(traced.size()) + " traced passes)"},
      {"trace.overhead_s", traced_wall - b.wall_s(), "s",
       " (traced minus untraced wall_s)"},
      {"trace.unattributed_s", med(&LayerTimes::unattributed_s), "s",
       " (traced wall_s minus the layer self times)"},
  };
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics)
    std::printf("%-28s %16.6f %-9s%s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(),
                std::isfinite(metrics[i].value) ? metrics[i].value : 0.0,
                metrics[i].unit.c_str());
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  guard_environment();
  guard_build();
  std::error_code ec;
  std::filesystem::create_directories(args.scratch, ec);
  if (ec) refuse("cannot create " + args.scratch + ": " + ec.message());

  std::printf(
      "provenance: {\"commit\": \"%s\", \"compiler\": \"%s\", "
      "\"build_type\": \"%s\", \"nproc\": %u, \"jit\": \"%s\", "
      "\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %.0f, "
      "\"trace\": %d, \"scale\": %g, \"cores\": 16, \"host_threads\": 1}\n",
      args.commit.c_str(), compiler(), PERFBENCH_BUILD_TYPE,
      std::thread::hardware_concurrency(),
      st::interp::jit_tier_name(RunOptions{}.jit.tier), args.workload.c_str(),
      static_cast<unsigned long long>(args.seed), args.seconds,
      args.trace ? 1 : 0, kScale);

  Bench bench(make_cells(args.workload, args.seed, kScale, args.scratch));
  const auto start = Clock::now();
  std::vector<LayerTimes> traced;
  LayerCounts counts;
  // Whole passes only: start another while it is expected to end in time.
  do {
    bench.untraced_pass();
    if (args.trace)
      traced.push_back(bench.traced_pass(traced.empty() ? &counts : nullptr));
  } while (seconds_since(start) * static_cast<double>(bench.passes() + 1) /
               static_cast<double>(bench.passes()) <=
           args.seconds);

  std::printf("host speed %.4f: reference kernel %.4f ms (median of %zu) "
              "against %.4f ms on the reference host\n",
              bench.host_speed(), 1e3 * bench.kernel_median_s(),
              bench.kernel_samples(), 1e3 * kReferenceKernelS);
  bool correct = bench.failed() == 0;
  if (!args.trace) {
    print_result(correct, bench.attempted(), bench.failed(),
                 end_to_end(bench, args.workload == "paper-fig7"));
    return 0;
  }
  for (const LayerTimes& t : traced) {
    if (std::abs(t.unattributed_s) > kClosureTolerance * t.wall_s ||
        t.loop_self_s < -kClosureTolerance * t.wall_s) {
      std::fprintf(stderr,
                   "FAILED accounting closure: %.4f s unattributed, %.4f s "
                   "loop self time, of %.4f s traced wall (tolerance %.0f%%)\n",
                   t.unattributed_s, t.loop_self_s, t.wall_s,
                   100 * kClosureTolerance);
      correct = false;
    }
  }
  print_result(correct, bench.attempted(), bench.failed(),
               per_layer(bench, traced, counts));
  return 0;
}
