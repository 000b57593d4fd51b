// Trace exporters (observability layer 2).
//
// Two on-disk formats, chosen by the STAGTM_TRACE path suffix:
//
//   *.json  — Chrome trace_event JSON. Opens directly in Perfetto or
//             chrome://tracing as a per-core timeline: transaction
//             attempts as spans colored by outcome (commit / abort /
//             irrevocable), advisory-lock critical sections as spans on
//             the same track, and instants for ALP firings, policy
//             decisions, timeouts and backoff. One trace "us" = one
//             simulated cycle.
//   *       — compact binary format ("STGTRC01"): the raw 24-byte event
//             records plus per-core emitted counts, for the
//             `stagtm trace` report and programmatic analysis.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace st::obs {

struct CoreTrace {
  std::uint64_t emitted = 0;            // includes events the ring dropped
  std::vector<TraceEvent> events;       // surviving events, oldest first
};

struct TraceData {
  std::uint64_t cap_per_core = 0;
  std::vector<CoreTrace> per_core;

  unsigned cores() const { return static_cast<unsigned>(per_core.size()); }
  std::uint64_t dropped(unsigned c) const {
    return per_core[c].emitted - per_core[c].events.size();
  }
};

/// Copies the sink's surviving events out of the rings.
TraceData snapshot(const TraceSink& sink);

/// Human-readable names for TraceEvent::arg8 payloads. Indexed by the raw
/// value; out-of-range values print as "?". The orderings mirror
/// htm::AbortCause and stagger::PolicyDecision (asserted by tests).
const char* abort_cause_name(std::uint8_t cause);
const char* policy_decision_name(std::uint8_t decision);

void write_chrome_trace(const TraceData& t, std::FILE* f);
void write_binary_trace(const TraceData& t, std::FILE* f);

/// Reads a binary trace; returns false and sets *err on a malformed file.
bool read_binary_trace(std::FILE* f, TraceData* out, std::string* err);

/// Writes the sink to `path` (format by suffix, see above). Returns false
/// and sets *err when the file cannot be written.
bool export_trace(const TraceSink& sink, const std::string& path,
                  std::string* err);

}  // namespace st::obs
