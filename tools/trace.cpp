// stagtm trace: summarizes a binary event trace (STAGTM_TRACE=<path> with a
// non-.json suffix) without opening a UI. Sections:
//   * per-core event totals (commits, aborts, drops)
//   * abort heatmap: top conflicting lines x anchor PC tags, by abort count
//   * per-advisory-lock hold/contention table
//   * locking-policy decision counts
//   * privacy report: lines that escaped their owner's private domain
//     (per-arena counts plus the earliest escapes with cycle and PC)
// Typical use: reproduce a contended run with tracing on, then point this
// at the file to see *which* lines and PCs the conflicts concentrate on —
// the same signal the locking policy itself trains on (paper §5.2).
//
//   stagtm trace [--top N] [--prof P] <trace-file>
//     --top N   rows in the abort heatmap and escape list (default 10)
//     --prof P  join a STAGTM_PROF provenance file: annotates the abort
//               heatmap with each line's allocation site
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "cli.hpp"

namespace st::cli {
namespace {

using st::htm::AbortCause;
using st::obs::EventKind;
using st::obs::Tier;
using st::obs::TraceData;
using st::obs::TraceEvent;

struct AbortCell {
  std::uint64_t count = 0;
  std::uint64_t by_cause[8] = {};
  // Filled from --prof: blame records join trace aborts on (core, cycle) —
  // both are recorded at the same clock inside HtmSystem::abort.
  std::uint32_t alloc_site = 0;
  bool site_known = false;
  std::uint64_t blamed = 0;  // aborts in this cell with a matching blame
};

struct LockRow {
  std::uint64_t acquires = 0;
  std::uint64_t hold_total = 0;
  std::uint64_t hold_max = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t wait_total = 0;  // cycles spent in timed-out waits
};

struct Escape {
  std::uint64_t cycle = 0;
  std::uint64_t line = 0;
  std::uint32_t pc = 0;         // 0 = commit drain / host channel
  unsigned owner = 0;           // core whose arena lost the line
  unsigned publisher = 0;       // core whose publication leaked it
};

}  // namespace

int trace_main(int argc, char** argv) {
  unsigned top = 10;
  std::string prof;
  Flags flags;
  top_flag(flags, &top);
  flags.text("--prof", &prof);
  const auto pos = flags.parse(argc, argv);
  if (pos.size() != 1) usage();
  const char* path = pos[0];
  const char* prof_path = prof.empty() ? nullptr : prof.c_str();

  TraceData t;
  if (!load(path, &t)) {
    if (std::string_view(path).ends_with(".json"))
      std::fprintf(stderr,
                   "(.json traces are for Perfetto/chrome://tracing; point "
                   "STAGTM_TRACE at a non-.json path for this report)\n");
    return 1;
  }

  // Optional provenance join: blame records and kTxAbort events are both
  // recorded at the abort-finalization clock, so (core, cycle) is an exact
  // key. Maps to the blamed line's allocation site for heatmap annotation.
  std::map<std::pair<unsigned, std::uint64_t>, const st::obs::BlameRecord*>
      blame_at;
  st::obs::ProvData prov;
  if (prof_path != nullptr) {
    if (!load(prof_path, &prov)) return 1;
    for (const auto& pc : prov.per_core)
      for (const st::obs::BlameRecord& r : pc.blames)
        blame_at[{r.victim_core, r.at}] = &r;
  }

  // ---- per-core totals ----------------------------------------------------
  std::printf("trace: %s  (%u cores, ring cap %" PRIu64 "/core)\n", path,
              t.cores(), t.cap_per_core);
  std::printf("\nper-core events\n");
  std::printf("  %-4s %10s %10s %9s %9s %9s %9s\n", "core", "emitted",
              "dropped", "begins", "commits", "aborts", "locks");
  std::uint64_t all_emitted = 0, all_dropped = 0;
  // Cross-core aggregations filled in the same pass.
  std::map<std::pair<std::uint64_t, std::uint16_t>, AbortCell> heat;
  std::map<std::uint32_t, LockRow> locks;
  std::uint64_t decisions[8] = {};
  std::uint64_t total_commits = 0, total_aborts = 0, irrevocable = 0;
  std::uint64_t stm_commits = 0;
  std::uint64_t train_htm = 0, train_stm = 0;
  std::uint64_t alp_fired = 0, backoffs = 0;
  std::map<unsigned, std::uint64_t> arena_escapes;  // owner core -> lines
  std::vector<Escape> escapes;
  for (unsigned c = 0; c < t.cores(); ++c) {
    std::uint64_t begins = 0, commits = 0, aborts = 0, lockev = 0;
    for (const TraceEvent& e : t.per_core[c].events) {
      switch (e.kind) {
        case EventKind::kTxBegin: ++begins; break;
        case EventKind::kTxCommit:
          ++commits;
          if (static_cast<Tier>(e.arg8) == Tier::kIrrevocable) ++irrevocable;
          if (static_cast<Tier>(e.arg8) == Tier::kStm) ++stm_commits;
          break;
        case EventKind::kTxAbort: {
          ++aborts;
          // Policy-training tier split: the locking policy trains on HTM
          // conflict aborts and STM orec conflicts.
          const auto cause = static_cast<AbortCause>(e.arg8 & 7);
          if (cause == AbortCause::Conflict) ++train_htm;
          if (cause == AbortCause::StmValidation ||
              cause == AbortCause::StmLock)
            ++train_stm;
          AbortCell& cell = heat[{e.a64, e.pc_tag}];
          ++cell.count;
          ++cell.by_cause[e.arg8 & 7];
          if (!blame_at.empty()) {
            const auto it = blame_at.find({c, e.at});
            if (it != blame_at.end()) {
              ++cell.blamed;
              if (!cell.site_known) {
                cell.alloc_site = it->second->alloc_site;
                cell.site_known = true;
              }
            }
          }
          break;
        }
        case EventKind::kAlpFired: ++alp_fired; break;
        case EventKind::kLockAcquire: {
          ++lockev;
          ++locks[e.a32].acquires;
          break;
        }
        case EventKind::kLockRelease: {
          ++lockev;
          LockRow& r = locks[e.a32];
          r.hold_total += e.a64;
          r.hold_max = std::max(r.hold_max, e.a64);
          break;
        }
        case EventKind::kLockTimeout: {
          ++lockev;
          LockRow& r = locks[e.a32];
          ++r.timeouts;
          r.wait_total += e.a64;
          break;
        }
        case EventKind::kPolicyDecision: ++decisions[e.arg8 & 7]; break;
        case EventKind::kIrrevocable: break;  // paired irrevocable commit
        case EventKind::kBackoff: ++backoffs; break;
        case EventKind::kLineEscape:
          ++arena_escapes[e.arg8];
          escapes.push_back({e.at, e.a64, e.a32, e.arg8, c});
          break;
        default: break;
      }
    }
    total_commits += commits;
    total_aborts += aborts;
    all_emitted += t.per_core[c].emitted;
    all_dropped += t.dropped(c);
    std::printf("  %-4u %10" PRIu64 " %10" PRIu64 " %9" PRIu64 " %9" PRIu64
                " %9" PRIu64 " %9" PRIu64 "\n",
                c, t.per_core[c].emitted, t.dropped(c), begins, commits,
                aborts, lockev);
  }
  std::printf("  total emitted %" PRIu64 ", dropped %" PRIu64
              " | commits %" PRIu64 " (htm %" PRIu64 ", stm %" PRIu64
              ", glock %" PRIu64 "), aborts %" PRIu64 ", ALPs %" PRIu64
              ", backoffs %" PRIu64 "\n",
              all_emitted, all_dropped, total_commits,
              total_commits - irrevocable - stm_commits, stm_commits,
              irrevocable, total_aborts, alp_fired, backoffs);
  if (all_dropped != 0)
    std::printf("  note: rings wrapped; counts below cover surviving (newest)"
                " events only — raise STAGTM_TRACE_CAP for full coverage\n");

  // ---- abort heatmap ------------------------------------------------------
  std::printf("\nabort heatmap (top %u conflicting line x PC-tag pairs)\n",
              top);
  if (heat.empty()) {
    std::printf("  (no aborts in trace)\n");
  } else {
    std::vector<std::pair<std::pair<std::uint64_t, std::uint16_t>, AbortCell>>
        rows(heat.begin(), heat.end());
    std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
      if (a.second.count != b.second.count)
        return a.second.count > b.second.count;
      return a.first < b.first;  // deterministic tie-break
    });
    if (prof_path != nullptr)
      std::printf("  %-18s %-7s %8s %-5s %-12s %s\n", "line", "pc_tag",
                  "aborts", "tier", "alloc_site", "causes");
    else
      std::printf("  %-18s %-7s %8s %-5s %s\n", "line", "pc_tag", "aborts",
                  "tier", "causes");
    if (rows.size() > top) rows.resize(top);
    for (const auto& [key, cell] : rows) {
      // Execution tier, recovered exactly from the cause namespace: the
      // Stm* causes are raised only by the STM tier, the others only by
      // hardware transactions (glock-serialized executions never abort).
      std::uint64_t stm_ab = 0;
      for (auto cz = static_cast<unsigned>(AbortCause::StmValidation);
           cz <= static_cast<unsigned>(AbortCause::StmGlock); ++cz)
        stm_ab += cell.by_cause[cz];
      const char* tier = stm_ab == 0 ? "htm"
                         : stm_ab == cell.count ? "stm"
                                                : "both";
      std::printf("  0x%-16" PRIx64 " 0x%-5x %8" PRIu64 " %-5s ", key.first,
                  key.second, cell.count, tier);
      if (prof_path != nullptr) {
        std::printf("%-12s ",
                    cell.site_known ? site_name(cell.alloc_site).c_str() : "?");
      }
      bool first = true;
      for (unsigned cz = 0; cz < 8; ++cz) {
        if (cell.by_cause[cz] == 0) continue;
        std::printf("%s%s:%" PRIu64, first ? "" : " ",
                    st::obs::abort_cause_name(static_cast<std::uint8_t>(cz)),
                    cell.by_cause[cz]);
        first = false;
      }
      std::printf("\n");
    }
    if (prof_path != nullptr) {
      std::uint64_t blamed = 0;
      for (const auto& [key, cell] : heat) blamed += cell.blamed;
      std::printf("  blame join: %" PRIu64 "/%" PRIu64
                  " aborts matched a provenance record\n",
                  blamed, total_aborts);
    }
  }

  // ---- per-lock table -----------------------------------------------------
  std::printf("\nadvisory locks (%zu seen)\n", locks.size());
  if (locks.empty()) {
    std::printf("  (no lock events in trace)\n");
  } else {
    std::printf("  %-5s %9s %12s %10s %10s %9s %12s\n", "lock", "acquires",
                "hold_total", "hold_avg", "hold_max", "timeouts",
                "wait_cycles");
    for (const auto& [idx, r] : locks) {
      const double avg =
          r.acquires == 0 ? 0.0
                          : static_cast<double>(r.hold_total) /
                                static_cast<double>(r.acquires);
      std::printf("  %-5u %9" PRIu64 " %12" PRIu64 " %10.1f %10" PRIu64
                  " %9" PRIu64 " %12" PRIu64 "\n",
                  idx, r.acquires, r.hold_total, avg, r.hold_max, r.timeouts,
                  r.wait_total);
    }
  }

  // ---- policy decisions ---------------------------------------------------
  std::printf("\nlocking-policy decisions\n");
  bool any = false;
  for (unsigned d = 0; d < 8; ++d) {
    if (decisions[d] == 0) continue;
    std::printf("  %-10s %9" PRIu64 "\n",
                st::obs::policy_decision_name(static_cast<std::uint8_t>(d)),
                decisions[d]);
    any = true;
  }
  if (!any) std::printf("  (none — run a Staggered/AddrOnly scheme)\n");
  if (any)
    std::printf("  training aborts by tier: htm %" PRIu64 " (conflict), stm %"
                PRIu64 " (stm_validation + stm_lock)\n",
                train_htm, train_stm);

  // ---- privacy report -----------------------------------------------------
  // Each line escapes at most once (privacy is irrevocable), so the event
  // count IS the escaped-line count and "first escape" is "the escape".
  std::printf("\nprivate-line escapes (%zu lines left their arena)\n",
              escapes.size());
  if (escapes.empty()) {
    std::printf("  (none — all worker-arena lines stayed private)\n");
  } else {
    std::printf("  per-arena: ");
    bool firsta = true;
    for (const auto& [owner, n] : arena_escapes) {
      std::printf("%score%u:%" PRIu64, firsta ? "" : " ", owner, n);
      firsta = false;
    }
    std::printf("\n");
    std::sort(escapes.begin(), escapes.end(),
              [](const Escape& a, const Escape& b) {
                if (a.cycle != b.cycle) return a.cycle < b.cycle;
                return a.line < b.line;  // deterministic tie-break
              });
    std::printf("  %-18s %12s %-10s %-6s %s\n", "line", "cycle", "pc",
                "owner", "published by");
    const std::size_t n = std::min<std::size_t>(escapes.size(), top);
    for (std::size_t i = 0; i < n; ++i) {
      const Escape& e = escapes[i];
      char pcbuf[16];
      if (e.pc == 0)
        std::snprintf(pcbuf, sizeof pcbuf, "%s", "commit");
      else
        std::snprintf(pcbuf, sizeof pcbuf, "0x%x", e.pc);
      std::printf("  0x%-16" PRIx64 " %12" PRIu64 " %-10s %-6u core%u\n",
                  e.line, e.cycle, pcbuf, e.owner, e.publisher);
    }
    if (escapes.size() > n)
      std::printf("  ... %zu more (raise --top to see them)\n",
                  escapes.size() - n);
  }
  return 0;
}

}  // namespace st::cli
