// Metrics registry (observability layer 3).
//
// One table naming every CoreStats counter and histogram, so consumers
// (the STAGTM_JSON writer, the stagtm-trace CLI, tests) iterate the full
// metric set generically instead of hand-listing fields — adding a counter
// to CoreStats plus one registry row makes it appear everywhere. A test
// cross-checks the registry-driven merge against MachineStats::total() so
// the two cannot drift apart silently.
#pragma once

#include <cstdio>
#include <vector>

#include "sim/stats.hpp"

namespace st::sim {
struct PrivacyStats;
}

namespace st::obs {

enum class Merge : std::uint8_t {
  kSum,  // volume counters: total = sum over cores
  kMax,  // peaks (e.g. spec_log_hwm): total = max over cores
};

struct CounterDef {
  const char* name;
  std::uint64_t sim::CoreStats::* member;
  Merge merge;
};

struct HistDef {
  const char* name;
  Log2Hist sim::CoreStats::* member;
};

const std::vector<CounterDef>& counter_registry();
const std::vector<HistDef>& hist_registry();

/// Merges `c` into `into` following each counter's merge rule and summing
/// histograms — the registry-driven equivalent of MachineStats::total().
void merge_core_stats(sim::CoreStats& into, const sim::CoreStats& c);

/// Serializes one CoreStats as a JSON object body (no surrounding braces):
/// every registered counter, then a "hists" object with count/sum/max/mean
/// and the log2 bucket array (trailing zero buckets trimmed) per histogram.
void write_core_stats_json(std::FILE* f, const sim::CoreStats& cs);

/// Serializes a privacy-map snapshot (sim/privacy.hpp PrivacyStats) as one
/// JSON object (with braces): whether a map was wired, escaped-line and
/// publish-check totals, and per-worker-arena escape counts.
void write_privacy_json(std::FILE* f, const sim::PrivacyStats& priv);

}  // namespace st::obs
