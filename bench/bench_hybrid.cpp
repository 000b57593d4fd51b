// Hybrid-TM fallback comparison (DESIGN.md §13, "When the fallback
// matters" in EXPERIMENTS.md): with the HTM retry budget forced low so
// contended transactions exhaust hardware retries quickly, compare the
// glock-only fallback (every exhausted transaction serializes against all
// others) with the TL2 STM middle tier (exhausted transactions serialize
// only on real orec conflicts). Reported per cell: throughput, commits by
// execution tier, and global-lock acquisitions — the quantity the STM tier
// exists to reduce.
//
// Knobs: the shared STAGTM_SCALE / STAGTM_CORES / STAGTM_SEED /
// STAGTM_JOBS / STAGTM_JSON set (bench_common.hpp). The HTM retry budget
// and the STM tier are set per-row by this binary (not via STAGTM_STM /
// STAGTM_MAX_RETRIES), so the comparison is self-contained.
#include "bench_common.hpp"

using namespace st;
using namespace st::bench;

int main() {
  print_header("Hybrid TM: TL2 STM fallback tier vs glock-only fallback");

  const unsigned threads = env_cores();
  // Two retry budgets: 1 (nearly every contended transaction falls back —
  // the stress case) and 4 (moderate pressure).
  const unsigned budgets[] = {1, 4};
  const char* workloads[] = {"list-hi", "vacation"};

  Sweep sweep("bench_hybrid");
  struct Ids {
    std::size_t glock_only, hybrid;
  };
  std::vector<Ids> ids;
  for (const char* wl : workloads) {
    for (unsigned mr : budgets) {
      workloads::RunOptions o =
          base_options(runtime::Scheme::kStaggered, threads);
      o.max_retries = mr;
      o.stm = stm::StmConfig{};  // enabled=false: glock-only fallback
      Ids row;
      row.glock_only = sweep.add(wl, o);
      o.stm.enabled = true;  // defaults: 8 STM retries, 4096 orecs
      row.hybrid = sweep.add(wl, o);
      ids.push_back(row);
    }
  }

  std::printf("%-10s %3s %-7s | %9s %7s %7s %7s %7s | %7s %6s\n", "benchmark",
              "mr", "tier", "thr", "commits", "htm", "stm", "glock", "gl_red",
              "thr_x");
  std::printf("-----------+-------------------------------------------------"
              "---+---------------\n");
  std::size_t i = 0;
  for (const char* wl : workloads) {
    for (unsigned mr : budgets) {
      const auto& g = sweep.get(ids[i].glock_only);
      const auto& h = sweep.get(ids[i].hybrid);
      ++i;
      const auto row = [&](const workloads::RunResult& r, const char* tier,
                           double gl_red, double thr_x) {
        std::printf("%-10s %3u %-7s | %9.6f %7llu %7llu %7llu %7llu |",
                    wl, mr, tier, r.throughput(),
                    static_cast<unsigned long long>(r.totals.commits),
                    static_cast<unsigned long long>(
                        r.totals.commits - r.totals.stm_commits -
                        r.totals.irrevocable_entries),
                    static_cast<unsigned long long>(r.totals.stm_commits),
                    static_cast<unsigned long long>(
                        r.totals.irrevocable_entries));
        if (gl_red > 0)
          std::printf(" %6.1fx %5.2fx\n", gl_red, thr_x);
        else
          std::printf("%8s %6s\n", "-", "-");
      };
      row(g, "glock", 0, 0);
      const double gl_red =
          h.totals.irrevocable_entries == 0
              ? static_cast<double>(g.totals.irrevocable_entries)
              : static_cast<double>(g.totals.irrevocable_entries) /
                    static_cast<double>(h.totals.irrevocable_entries);
      const double thr_x = g.throughput() == 0
                               ? 0.0
                               : h.throughput() / g.throughput();
      row(h, "hybrid", gl_red, thr_x);
    }
  }
  std::printf(
      "\ngl_red = glock acquisitions, glock-only over hybrid (higher is\n"
      "better); thr_x = hybrid throughput over glock-only. The STM tier\n"
      "earns its keep when gl_red is large without thr_x dropping below 1.\n");
  return 0;
}
