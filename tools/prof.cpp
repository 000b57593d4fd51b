// stagtm prof: analyzes a binary conflict-provenance file (STAGTM_PROF=<path>,
// format "STGPRF01", obs/prov.hpp). Where `stagtm trace` summarizes
// *events*, this report assigns *blame*:
//   * summary: blame/episode totals, abort causes, wasted cycles
//   * hotspots: conflict-graph nodes (allocation site x access PC) ranked by
//     wasted cycles — "code X touching data born at Y" is the unit the
//     paper's advisory locks target
//   * conflict graph: top aggressor -> victim edges with abort counts
//   * abort cascades: chains where an aborted transaction retried and in
//     turn aborted someone else (A kills B, B retries and kills C, ...)
//   * lock effectiveness: per advisory lock, how many serializations
//     actually avoided a conflict (footprints overlapped) vs were false
//     (footprints disjoint: pure cost)
//   * --diff A B: side-by-side comparison of two runs (e.g. list_bench with
//     advisory locks off vs on) — per-lock counterfactual counts plus the
//     hotspot deltas that explain where the wasted cycles went
//
//   stagtm prof [--top N] [--window W] <prof-file>
//   stagtm prof --diff <prof-A> <prof-B> [--top N]
//     --top N     rows per table (default 10)
//     --window W  max cycles between cascade links (default 5000)
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "cli.hpp"

namespace st::cli {
namespace {

using st::obs::BlameRecord;
using st::obs::ConflictGraph;
using st::obs::LockClass;
using st::obs::LockEffectiveness;
using st::obs::LockEpisodeRecord;
using st::obs::ProvData;
using st::obs::ProvSummary;

/// All blame records of a run merged across cores, time order (ties broken
/// by victim core so output is deterministic).
std::vector<BlameRecord> merged_blames(const ProvData& d) {
  std::vector<BlameRecord> all;
  for (const auto& c : d.per_core)
    all.insert(all.end(), c.blames.begin(), c.blames.end());
  std::sort(all.begin(), all.end(),
            [](const BlameRecord& a, const BlameRecord& b) {
              if (a.at != b.at) return a.at < b.at;
              return a.victim_core < b.victim_core;
            });
  return all;
}

std::uint64_t total_wasted(const ProvData& d) {
  std::uint64_t w = 0;
  for (const auto& c : d.per_core)
    for (const BlameRecord& r : c.blames) w += r.wasted_cycles;
  return w;
}

void print_summary(const ProvData& d) {
  const ProvSummary s = st::obs::summarize_prov(d);
  std::printf("summary\n");
  std::printf("  blame records   %10" PRIu64 "  (dropped %" PRIu64 ")\n",
              s.blame_records, s.blame_dropped);
  std::printf("  lock episodes   %10" PRIu64 "  (dropped %" PRIu64 ")\n",
              s.lock_episodes, s.episodes_dropped);
  std::printf("  wasted cycles   %10" PRIu64 "\n", total_wasted(d));
  std::uint64_t by_cause[8] = {};
  std::uint64_t self = 0, glock = 0;
  std::uint64_t stm_tier = 0, stm_wasted = 0, htm_wasted = 0;
  for (const auto& c : d.per_core)
    for (const BlameRecord& r : c.blames) {
      ++by_cause[r.cause & 7];
      if ((r.flags & st::obs::kBlameHasAggressor) != 0 &&
          r.victim_core == r.aggressor_core)
        ++self;  // capacity overflow: the victim is its own aggressor
      if (r.flags & st::obs::kBlameWillGlock) ++glock;
      if (r.flags & st::obs::kBlameTierStm) {
        ++stm_tier;
        stm_wasted += r.wasted_cycles;
      } else {
        htm_wasted += r.wasted_cycles;
      }
    }
  std::printf("  causes         ");
  bool any = false;
  for (unsigned cz = 0; cz < 8; ++cz) {
    if (by_cause[cz] == 0) continue;
    std::printf(" %s:%" PRIu64,
                st::obs::abort_cause_name(static_cast<std::uint8_t>(cz)),
                by_cause[cz]);
    any = true;
  }
  std::printf("%s\n", any ? "" : " (none)");
  std::printf("  self-inflicted  %10" PRIu64
              "   retry-budget-exhausted %" PRIu64 "\n",
              self, glock);
  std::printf("  by tier: htm %" PRIu64 " (wasted %" PRIu64 "), stm %" PRIu64
              " (wasted %" PRIu64 ")\n",
              s.blame_records - stm_tier, htm_wasted, stm_tier, stm_wasted);
  std::printf("  serializations: conflict-avoided %" PRIu64
              ", false %" PRIu64 ", indeterminate %" PRIu64 "\n",
              s.conflict_avoided, s.false_serialization, s.indeterminate);
}

void print_hotspots(const ConflictGraph& g, unsigned top) {
  std::printf("\nhotspots (allocation site x victim PC, by wasted cycles)\n");
  if (g.nodes.empty()) {
    std::printf("  (no aborts recorded)\n");
    return;
  }
  std::vector<ConflictGraph::Node> rows = g.nodes;
  std::sort(rows.begin(), rows.end(),
            [](const ConflictGraph::Node& a, const ConflictGraph::Node& b) {
              if (a.wasted_cycles != b.wasted_cycles)
                return a.wasted_cycles > b.wasted_cycles;
              if (a.alloc_site != b.alloc_site)
                return a.alloc_site < b.alloc_site;
              return a.pc < b.pc;
            });
  if (rows.size() > top) rows.resize(top);
  std::printf("  %-12s %-10s %10s %10s %14s\n", "alloc_site", "pc",
              "victim", "aggressor", "wasted_cycles");
  for (const auto& n : rows)
    std::printf("  %-12s 0x%-8x %10" PRIu64 " %10" PRIu64 " %14" PRIu64 "\n",
                site_name(n.alloc_site).c_str(), n.pc, n.aborts_as_victim,
                n.aborts_as_aggressor, n.wasted_cycles);
}

void print_edges(const ConflictGraph& g, unsigned top) {
  std::printf("\nconflict graph (top aggressor -> victim edges)\n");
  if (g.edges.empty()) {
    std::printf("  (no attributed conflicts)\n");
    return;
  }
  const std::size_t n = std::min<std::size_t>(g.edges.size(), top);
  std::printf("  %-26s %-26s %8s %14s\n", "aggressor (site,pc)",
              "victim (site,pc)", "aborts", "wasted_cycles");
  for (std::size_t i = 0; i < n; ++i) {
    const auto& e = g.edges[i];
    const auto& s = g.nodes[e.src];
    const auto& d = g.nodes[e.dst];
    char sb[32], db[32];
    std::snprintf(sb, sizeof sb, "(0x%x,0x%x)", s.alloc_site, s.pc);
    std::snprintf(db, sizeof db, "(0x%x,0x%x)", d.alloc_site, d.pc);
    std::printf("  %-26s %-26s %8" PRIu64 " %14" PRIu64 "\n", sb, db,
                e.aborts, e.wasted_cycles);
  }
  if (g.edges.size() > n)
    std::printf("  ... %zu more edges\n", g.edges.size() - n);
}

/// Cascade chains: record B continues record A when A's victim — forced to
/// retry — shows up as B's aggressor within `window` cycles. A long chain
/// is contention begetting contention: the signal that a single advisory
/// lock placed at the chain's root line would have quenched the whole run.
void print_cascades(const ProvData& d, unsigned top, std::uint64_t window) {
  const std::vector<BlameRecord> all = merged_blames(d);
  std::printf("\nabort cascades (retry chains within %" PRIu64 " cycles)\n",
              window);
  if (all.empty()) {
    std::printf("  (no aborts recorded)\n");
    return;
  }
  // last_victim[c] = index of the newest record in which core c was the
  // victim; records are scanned in time order so a lookup sees only the
  // past. parent[] links each record to the abort that provoked it.
  std::vector<std::ptrdiff_t> last_victim(256, -1);
  std::vector<std::ptrdiff_t> parent(all.size(), -1);
  std::vector<std::uint32_t> depth(all.size(), 1);
  std::vector<std::uint64_t> chain_wasted(all.size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    const BlameRecord& r = all[i];
    chain_wasted[i] = r.wasted_cycles;
    if ((r.flags & st::obs::kBlameHasAggressor) &&
        r.aggressor_core != r.victim_core) {  // self-aborts never cascade
      const std::ptrdiff_t p = last_victim[r.aggressor_core];
      if (p >= 0 && all[p].at <= r.at && r.at - all[p].at <= window &&
          all[p].victim_core == r.aggressor_core) {
        parent[i] = p;
        depth[i] = depth[p] + 1;
        chain_wasted[i] += chain_wasted[p];
      }
    }
    last_victim[r.victim_core] = static_cast<std::ptrdiff_t>(i);
  }
  // Chain tips = records nobody continued; rank by chain depth then cost.
  std::vector<bool> continued(all.size(), false);
  for (std::size_t i = 0; i < all.size(); ++i)
    if (parent[i] >= 0) continued[static_cast<std::size_t>(parent[i])] = true;
  std::vector<std::size_t> tips;
  for (std::size_t i = 0; i < all.size(); ++i)
    if (!continued[i] && depth[i] >= 2) tips.push_back(i);
  if (tips.empty()) {
    std::printf("  (no cascades: every abort's aggressor committed)\n");
    return;
  }
  std::sort(tips.begin(), tips.end(), [&](std::size_t a, std::size_t b) {
    if (depth[a] != depth[b]) return depth[a] > depth[b];
    if (chain_wasted[a] != chain_wasted[b])
      return chain_wasted[a] > chain_wasted[b];
    return all[a].at < all[b].at;
  });
  const std::size_t n = std::min<std::size_t>(tips.size(), top);
  std::printf("  %zu chains (depth >= 2); deepest %u\n", tips.size(),
              depth[tips[0]]);
  for (std::size_t t = 0; t < n; ++t) {
    std::printf("  chain %zu: depth %u, wasted %" PRIu64 " cycles\n", t + 1,
                depth[tips[t]], chain_wasted[tips[t]]);
    // Walk tip -> root, then print root-first.
    std::vector<std::size_t> hops;
    for (std::ptrdiff_t i = static_cast<std::ptrdiff_t>(tips[t]); i >= 0;
         i = parent[static_cast<std::size_t>(i)])
      hops.push_back(static_cast<std::size_t>(i));
    std::reverse(hops.begin(), hops.end());
    for (std::size_t h : hops) {
      const BlameRecord& r = all[h];
      std::printf("    @%-10" PRIu64 " core%u killed core%u  line 0x%" PRIx64
                  "  pc 0x%x  site 0x%x  (%s, retry %u)\n",
                  r.at, r.aggressor_core, r.victim_core, r.line, r.victim_pc,
                  r.alloc_site, st::obs::abort_cause_name(r.cause), r.retry);
    }
  }
  if (tips.size() > n)
    std::printf("  ... %zu more chains (raise --top)\n", tips.size() - n);
}

void print_locks(const ProvData& d, unsigned top) {
  const std::vector<LockEffectiveness> rows = st::obs::lock_effectiveness(d);
  std::printf("\nadvisory-lock effectiveness (counterfactual)\n");
  if (rows.empty()) {
    std::printf("  (no lock episodes — run a Staggered/AddrOnly scheme)\n");
    return;
  }
  std::vector<LockEffectiveness> ranked = rows;
  std::sort(ranked.begin(), ranked.end(),
            [](const LockEffectiveness& a, const LockEffectiveness& b) {
              if (a.episodes != b.episodes) return a.episodes > b.episodes;
              return a.lock_idx < b.lock_idx;
            });
  if (ranked.size() > top) ranked.resize(top);
  std::printf("  %-5s %9s %9s %9s %7s %13s %13s %8s\n", "lock", "episodes",
              "avoided", "false", "indet", "avoided_wait", "false_wait",
              "useful%");
  for (const auto& r : ranked) {
    const std::uint64_t classified = r.conflict_avoided + r.false_serialization;
    const double useful =
        classified == 0 ? 0.0
                        : 100.0 * static_cast<double>(r.conflict_avoided) /
                              static_cast<double>(classified);
    std::printf("  %-5u %9" PRIu64 " %9" PRIu64 " %9" PRIu64 " %7" PRIu64
                " %13" PRIu64 " %13" PRIu64 " %7.1f%%\n",
                r.lock_idx, r.episodes, r.conflict_avoided,
                r.false_serialization, r.indeterminate, r.avoided_wait_cycles,
                r.false_wait_cycles, useful);
  }
  if (rows.size() > ranked.size())
    std::printf("  ... %zu more locks (raise --top)\n",
                rows.size() - ranked.size());
}

int analyze(const char* path, unsigned top, std::uint64_t window) {
  ProvData d;
  if (!load(path, &d)) return 1;
  std::printf("prof: %s  (%u cores, ring cap %" PRIu64 "/core)\n", path,
              d.cores(), d.cap_per_core);
  if (d.blame_dropped() != 0 || d.episodes_dropped() != 0)
    std::printf("note: rings wrapped (%" PRIu64 " blames, %" PRIu64
                " episodes dropped); tables cover surviving (newest) records"
                " — raise STAGTM_PROF_CAP for full coverage\n",
                d.blame_dropped(), d.episodes_dropped());
  print_summary(d);
  const ConflictGraph g = st::obs::build_conflict_graph(d);
  print_hotspots(g, top);
  print_edges(g, top);
  print_cascades(d, top, window);
  print_locks(d, top);
  return 0;
}

// ---- diff mode ------------------------------------------------------------

void diff_line(const char* label, std::uint64_t a, std::uint64_t b) {
  const std::int64_t delta =
      static_cast<std::int64_t>(b) - static_cast<std::int64_t>(a);
  std::printf("  %-24s %12" PRIu64 " %12" PRIu64 " %+12" PRId64 "\n", label,
              a, b, delta);
}

int diff(const char* pa, const char* pb, unsigned top) {
  ProvData a, b;
  if (!load(pa, &a) || !load(pb, &b)) return 1;
  std::printf("diff: A = %s\n      B = %s\n", pa, pb);
  const ProvSummary sa = st::obs::summarize_prov(a);
  const ProvSummary sb = st::obs::summarize_prov(b);
  std::printf("\n  %-24s %12s %12s %12s\n", "", "A", "B", "B-A");
  diff_line("aborts (blamed)", sa.blame_records, sb.blame_records);
  diff_line("wasted cycles", total_wasted(a), total_wasted(b));
  diff_line("lock episodes", sa.lock_episodes, sb.lock_episodes);
  diff_line("conflict avoided", sa.conflict_avoided, sb.conflict_avoided);
  diff_line("false serialization", sa.false_serialization,
            sb.false_serialization);
  diff_line("indeterminate", sa.indeterminate, sb.indeterminate);

  // Per-lock counterfactual table, union of both runs' locks. A run with
  // advisory locks off contributes zeros — the table then reads as "what
  // the locks bought (avoided) and charged (false) when turned on".
  std::map<std::uint32_t, std::pair<LockEffectiveness, LockEffectiveness>>
      by_lock;
  for (const LockEffectiveness& r : st::obs::lock_effectiveness(a))
    by_lock[r.lock_idx].first = r;
  for (const LockEffectiveness& r : st::obs::lock_effectiveness(b))
    by_lock[r.lock_idx].second = r;
  std::printf("\nper-lock counterfactual (A | B)\n");
  if (by_lock.empty()) {
    std::printf("  (no lock episodes in either run)\n");
  } else {
    std::printf("  %-5s | %9s %9s %9s | %9s %9s %9s\n", "lock", "avoided",
                "false", "indet", "avoided", "false", "indet");
    std::vector<std::pair<std::uint32_t,
                          std::pair<LockEffectiveness, LockEffectiveness>>>
        rows(by_lock.begin(), by_lock.end());
    std::sort(rows.begin(), rows.end(), [](const auto& x, const auto& y) {
      const std::uint64_t ex = x.second.first.episodes + x.second.second.episodes;
      const std::uint64_t ey = y.second.first.episodes + y.second.second.episodes;
      if (ex != ey) return ex > ey;
      return x.first < y.first;
    });
    if (rows.size() > top) rows.resize(top);
    for (const auto& [idx, pr] : rows)
      std::printf("  %-5u | %9" PRIu64 " %9" PRIu64 " %9" PRIu64
                  " | %9" PRIu64 " %9" PRIu64 " %9" PRIu64 "\n",
                  idx, pr.first.conflict_avoided, pr.first.false_serialization,
                  pr.first.indeterminate, pr.second.conflict_avoided,
                  pr.second.false_serialization, pr.second.indeterminate);
  }

  // Hotspot delta: which (site, pc) nodes gained/lost wasted cycles.
  struct Cell {
    std::uint64_t aborts_a = 0, wasted_a = 0;
    std::uint64_t aborts_b = 0, wasted_b = 0;
  };
  std::map<std::pair<std::uint32_t, std::uint32_t>, Cell> cells;
  for (const ConflictGraph::Node& n : st::obs::build_conflict_graph(a).nodes) {
    Cell& c = cells[{n.alloc_site, n.pc}];
    c.aborts_a = n.aborts_as_victim;
    c.wasted_a = n.wasted_cycles;
  }
  for (const ConflictGraph::Node& n : st::obs::build_conflict_graph(b).nodes) {
    Cell& c = cells[{n.alloc_site, n.pc}];
    c.aborts_b = n.aborts_as_victim;
    c.wasted_b = n.wasted_cycles;
  }
  std::printf("\nhotspot deltas (by |wasted B - wasted A|)\n");
  if (cells.empty()) {
    std::printf("  (no aborts in either run)\n");
    return 0;
  }
  std::vector<std::pair<std::pair<std::uint32_t, std::uint32_t>, Cell>> rows(
      cells.begin(), cells.end());
  auto mag = [](const Cell& c) {
    return c.wasted_b > c.wasted_a ? c.wasted_b - c.wasted_a
                                   : c.wasted_a - c.wasted_b;
  };
  std::sort(rows.begin(), rows.end(), [&](const auto& x, const auto& y) {
    const std::uint64_t mx = mag(x.second), my = mag(y.second);
    if (mx != my) return mx > my;
    return x.first < y.first;
  });
  if (rows.size() > top) rows.resize(top);
  std::printf("  %-12s %-10s %9s %9s %13s %13s\n", "alloc_site", "pc",
              "aborts A", "aborts B", "wasted A", "wasted B");
  for (const auto& [key, c] : rows)
    std::printf("  %-12s 0x%-8x %9" PRIu64 " %9" PRIu64 " %13" PRIu64
                " %13" PRIu64 "\n",
                site_name(key.first).c_str(), key.second, c.aborts_a,
                c.aborts_b, c.wasted_a, c.wasted_b);
  return 0;
}

}  // namespace

int prof_main(int argc, char** argv) {
  unsigned top = 10;
  std::uint64_t window = 5000;
  bool diff_mode = false;
  Flags flags;
  top_flag(flags, &top);
  flags.integer("--window", &window, 1, ~std::uint64_t{0});
  flags.toggle("--diff", &diff_mode);
  const auto paths = flags.parse(argc, argv);
  if (paths.size() != (diff_mode ? 2u : 1u)) usage();
  return diff_mode ? diff(paths[0], paths[1], top)
                   : analyze(paths[0], top, window);
}

}  // namespace st::cli
