// stagtm — command-line driver for one-off experiment runs.
//
//   stagtm list
//   stagtm run <workload> [--scheme htm|addronly|staggered|staggered-sw]
//              [--threads N] [--scale F] [--seed S] [--lazy]
//              [--pc-tag-bits B] [--locks N] [--timeout CYCLES]
//              [--max-retries N] [--history N] [--pc-thr N] [--addr-thr N]
//              [--prom-thr N]
//
// Prints the full RunResult breakdown; exits nonzero on bad usage.
#include <cstdio>
#include <cstring>
#include <string>

#include "workloads/harness.hpp"

namespace {

using namespace st;

int usage() {
  std::fprintf(
      stderr,
      "usage: stagtm list\n"
      "       stagtm run <workload> [--scheme S] [--threads N] [--scale F]\n"
      "                  [--seed S] [--lazy] [--pc-tag-bits B] [--locks N]\n"
      "                  [--timeout C] [--max-retries N] [--history N]\n"
      "                  [--pc-thr N] [--addr-thr N] [--prom-thr N]\n");
  return 2;
}

bool parse_scheme(const std::string& s, runtime::Scheme* out) {
  if (s == "htm") *out = runtime::Scheme::kBaseline;
  else if (s == "addronly") *out = runtime::Scheme::kAddrOnly;
  else if (s == "staggered") *out = runtime::Scheme::kStaggered;
  else if (s == "staggered-sw") *out = runtime::Scheme::kStaggeredSW;
  else return false;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];

  if (cmd == "list") {
    for (const auto& [name, factory] : workloads::workload_registry()) {
      auto wl = factory();
      std::printf("%-10s  contention=%s  ops/thread=%llu\n", name.c_str(),
                  wl->expected_contention(),
                  static_cast<unsigned long long>(wl->ops_per_thread()));
    }
    return 0;
  }
  if (cmd != "run" || argc < 3) return usage();

  const std::string name = argv[2];
  workloads::RunOptions o;
  o.ops_scale = 0.25;
  for (int i = 3; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      return ++i < argc ? argv[i] : nullptr;
    };
    if (a == "--lazy") {
      o.lazy_htm = true;
    } else if (a == "--scheme") {
      const char* v = next();
      if (!v || !parse_scheme(v, &o.scheme)) return usage();
    } else if (a == "--threads") {
      const char* v = next();
      if (!v) return usage();
      o.threads = std::atoi(v);
    } else if (a == "--scale") {
      const char* v = next();
      if (!v) return usage();
      o.ops_scale = std::atof(v);
    } else if (a == "--seed") {
      const char* v = next();
      if (!v) return usage();
      o.seed = std::atoll(v);
    } else if (a == "--pc-tag-bits") {
      const char* v = next();
      if (!v) return usage();
      o.pc_tag_bits = std::atoi(v);
    } else if (a == "--locks") {
      const char* v = next();
      if (!v) return usage();
      o.num_advisory_locks = std::atoi(v);
    } else if (a == "--timeout") {
      const char* v = next();
      if (!v) return usage();
      o.lock_timeout = std::atoll(v);
    } else if (a == "--max-retries") {
      const char* v = next();
      if (!v) return usage();
      o.max_retries = std::atoi(v);
    } else if (a == "--history") {
      const char* v = next();
      if (!v) return usage();
      o.history_len = std::atoi(v);
    } else if (a == "--pc-thr") {
      const char* v = next();
      if (!v) return usage();
      o.policy.pc_thr = std::atoi(v);
    } else if (a == "--addr-thr") {
      const char* v = next();
      if (!v) return usage();
      o.policy.addr_thr = std::atoi(v);
    } else if (a == "--prom-thr") {
      const char* v = next();
      if (!v) return usage();
      o.policy.prom_thr = std::atoi(v);
    } else {
      std::fprintf(stderr, "unknown flag %s\n", a.c_str());
      return usage();
    }
  }

  if (!workloads::make_workload(name)) {
    std::fprintf(stderr, "unknown workload '%s' (try: stagtm list)\n",
                 name.c_str());
    return 1;
  }

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
