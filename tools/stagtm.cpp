// stagtm — the command-line interface of the simulator.
//
//   stagtm list                      registered workloads
//   stagtm run <workload> [flags]    one run, full RunResult breakdown
//   stagtm check <workload> [flags]  schedule-exploration checker (check.cpp)
//   stagtm trace [flags] <file>      binary event-trace report (trace.cpp)
//   stagtm prof [flags] <file>       conflict-provenance report (prof.cpp)
//
// `stagtm` alone prints every subcommand's flags. Bad usage, a malformed
// flag value or an unknown workload exits 2.
#include <cstdio>
#include <string>

#include "cli.hpp"

namespace {

using namespace st;

int list(int argc, char** argv) {
  if (!cli::Flags().parse(argc, argv).empty()) cli::usage();
  for (const auto& [name, factory] : workloads::workload_registry()) {
    auto wl = factory();
    std::printf("%-10s  contention=%s  ops/thread=%llu\n", name.c_str(),
                wl->expected_contention(),
                static_cast<unsigned long long>(wl->ops_per_thread()));
  }
  return 0;
}

int run(int argc, char** argv) {
  workloads::RunOptions o;
  cli::Flags flags;
  cli::run_flags(flags, &o);
  const auto pos = flags.parse(argc, argv);
  if (pos.size() != 1) cli::usage();
  const std::string name = pos[0];
  cli::require_workload(name);

  const auto r = workloads::run_workload(name, o);
  const auto& t = r.totals;
  std::printf("workload   %s\nscheme     %s%s\nthreads    %u\n", name.c_str(),
              r.scheme.c_str(), o.lazy_htm ? " (lazy HTM)" : "", r.threads);
  std::printf("cycles     %llu\nops        %llu\nthroughput %.6f ops/cycle\n",
              static_cast<unsigned long long>(r.cycles),
              static_cast<unsigned long long>(r.total_ops), r.throughput());
  std::printf("commits    %llu  (irrevocable %llu = %.1f%%)\n",
              static_cast<unsigned long long>(t.commits),
              static_cast<unsigned long long>(t.irrevocable_entries),
              r.pct_irrevocable());
  // Printed only when the STM tier is on, so STM-off stdout stays
  // byte-identical to builds without src/stm (CI-enforced).
  if (o.stm.enabled)
    std::printf(
        "stm        commits %llu, aborts (validation %llu, lock %llu, "
        "glock %llu), orec-waits %llu\n",
        static_cast<unsigned long long>(t.stm_commits),
        static_cast<unsigned long long>(t.stm_aborts_validation),
        static_cast<unsigned long long>(t.stm_aborts_lock),
        static_cast<unsigned long long>(t.stm_aborts_glock),
        static_cast<unsigned long long>(t.stm_orec_waits));
  std::printf(
      "aborts     %llu  (conflict %llu, capacity %llu, glock %llu, "
      "explicit %llu)  Abts/C %.2f\n",
      static_cast<unsigned long long>(t.total_aborts()),
      static_cast<unsigned long long>(t.aborts_conflict),
      static_cast<unsigned long long>(t.aborts_capacity),
      static_cast<unsigned long long>(t.aborts_glock),
      static_cast<unsigned long long>(t.aborts_explicit),
      r.aborts_per_commit());
  std::printf(
      "cycles     useful %llu, wasted %llu (W/U %.2f), lock-wait %llu, "
      "backoff %llu, serial %llu, non-tx %llu  (%%TM %.0f)\n",
      static_cast<unsigned long long>(t.cycles_useful_tx),
      static_cast<unsigned long long>(t.cycles_wasted_tx),
      r.wasted_over_useful(),
      static_cast<unsigned long long>(t.cycles_lock_wait),
      static_cast<unsigned long long>(t.cycles_backoff),
      static_cast<unsigned long long>(t.cycles_irrevocable),
      static_cast<unsigned long long>(t.cycles_nontx), r.pct_tm());
  std::printf(
      "alps       executed %llu, acquired %llu, timeouts %llu, anchor "
      "accuracy %.1f%%\n",
      static_cast<unsigned long long>(t.alp_executed),
      static_cast<unsigned long long>(t.alp_acquires),
      static_cast<unsigned long long>(t.alp_timeouts),
      100.0 * r.anchor_accuracy());
  std::printf("locality   conflict-addr %.2f, conflict-pc %.2f\n",
              r.conflict_addr_locality, r.conflict_pc_locality);
  std::printf("energy     %.0f (arbitrary units; spin 0.3x, backoff 0.2x)\n",
              r.energy_estimate());
  // The privacy report goes to stderr: stdout carries only the simulated
  // results.
  std::fprintf(stderr,
               "[privacy: escaped_lines=%llu publish_checks=%llu "
               "priv_hits=%llu dir_probes=%llu]\n",
               static_cast<unsigned long long>(r.privacy.escaped_lines),
               static_cast<unsigned long long>(r.privacy.publish_checks),
               static_cast<unsigned long long>(t.priv_hits),
               static_cast<unsigned long long>(t.dir_probes));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) cli::usage();
  const std::string cmd = argv[1];
  argc -= 2;
  argv += 2;
  if (cmd == "list") return list(argc, argv);
  if (cmd == "run") return run(argc, argv);
  if (cmd == "check") return cli::check_main(argc, argv);
  if (cmd == "trace") return cli::trace_main(argc, argv);
  if (cmd == "prof") return cli::prof_main(argc, argv);
  cli::usage();
}
