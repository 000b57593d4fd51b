// stagtm check — schedule-exploration correctness checker.
//
//   stagtm check <workload> [run flags] [--break-subscription]
//                [--mode jitter|pct] [--seeds N] [--seed0 S] [--jitter C]
//                [--period N] [--depth D] [--window LO:HI] [--reduce]
//                [--trace-out PATH]
//
// For each of N perturbation seeds: run the workload under the perturbed
// schedule in checked mode, validate the workload's invariants, then replay
// the commit log serially through the serializability oracle. On the first
// failing seed, optionally shrink the perturbation to a minimal reproducer
// (--reduce) and re-run it with event tracing into --trace-out for Perfetto
// inspection.
//
// Exit status: 0 = all seeds clean, 1 = failure found, 2 = bad usage.
// Output is deterministic (no timestamps, no wall-clock).
#include <cstdio>
#include <string>

#include "check/check.hpp"
#include "check/reducer.hpp"
#include "cli.hpp"

namespace st::cli {

int check_main(int argc, char** argv) {
  workloads::RunOptions base;
  check::SchedConfig sched;
  sched.mode = check::SchedMode::kJitter;
  unsigned seeds = 25;
  std::uint64_t seed0 = 1;
  bool do_reduce = false;
  std::string trace_out;

  Flags flags;
  run_flags(flags, &base);
  flags.toggle("--break-subscription", &base.unsafe_skip_subscription);
  flags.value("--mode", [&](const char* v) {
    sched.mode = check::parse_sched_mode("--mode", v);
  });
  flags.integer("--seeds", &seeds, 1, 1'000'000);
  flags.integer("--seed0", &seed0, 0, ~std::uint64_t{0});
  flags.integer("--jitter", &sched.jitter, 1, 1'000'000'000);
  flags.integer("--period", &sched.period, 1, 1'000'000'000);
  flags.integer("--depth", &sched.depth, 0, 1024);
  flags.value("--window",
              [&](const char* v) { sched.parse_window("--window", v); });
  flags.toggle("--reduce", &do_reduce);
  flags.text("--trace-out", &trace_out);
  const auto pos = flags.parse(argc, argv);
  if (pos.size() != 1) usage();
  const std::string name = pos[0];
  require_workload(name);
  // Probes must not pick up ambient STAGTM_TRACE (observer invariance is
  // separately guaranteed, but the checker's probes should be cheap).
  base.trace_path = std::string();

  std::printf("checking %s: %u seed(s), base %s\n", name.c_str(), seeds,
              sched.describe().c_str());
  for (unsigned i = 0; i < seeds; ++i) {
    check::SchedConfig probe = sched;
    probe.seed = seed0 + i;
    const check::Verdict v = check::check_once(name, base, probe);
    if (v.ok) {
      std::printf("seed %llu: ok (%llu commits, %llu cycles)\n",
                  static_cast<unsigned long long>(probe.seed),
                  static_cast<unsigned long long>(v.commits),
                  static_cast<unsigned long long>(v.cycles));
      continue;
    }
    std::printf("seed %llu: FAIL [%s] %s\n",
                static_cast<unsigned long long>(probe.seed), v.stage.c_str(),
                v.failure.c_str());
    check::SchedConfig repro = probe;
    if (do_reduce) {
      const auto fails = [&](const check::SchedConfig& c) {
        return !check::check_once(name, base, c).ok;
      };
      const check::ReduceResult red =
          check::reduce(probe, v.cycles, fails);
      if (red.reproduced) repro = red.minimal;
      std::printf("reduced (%u probes): %s\n", red.probes,
                  repro.describe().c_str());
    }
    std::printf("reproduce: STAGTM_SCHED_MODE=%s STAGTM_SCHED_SEED=%llu",
                check::sched_mode_name(repro.mode),
                static_cast<unsigned long long>(repro.seed));
    if (repro.mode == check::SchedMode::kJitter) {
      std::printf(" STAGTM_SCHED_JITTER=%llu STAGTM_SCHED_PERIOD=%llu",
                  static_cast<unsigned long long>(repro.jitter),
                  static_cast<unsigned long long>(repro.period));
      if (repro.window_hi != ~sim::Cycle{0})
        std::printf(" STAGTM_SCHED_WINDOW=%llu:%llu",
                    static_cast<unsigned long long>(repro.window_lo),
                    static_cast<unsigned long long>(repro.window_hi));
    } else {
      std::printf(" STAGTM_SCHED_DEPTH=%u STAGTM_SCHED_SKEW=%llu",
                  repro.depth,
                  static_cast<unsigned long long>(repro.skew));
    }
    std::printf("\n");
    if (!trace_out.empty()) {
      workloads::RunOptions traced = base;
      traced.checked = true;
      traced.sched = repro;
      traced.trace_path = trace_out;
      (void)workloads::run_workload(name, traced);
      std::printf("trace: %s\n", trace_out.c_str());
    }
    return 1;
  }
  std::printf("all %u seed(s) clean\n", seeds);
  return 0;
}

}  // namespace st::cli
