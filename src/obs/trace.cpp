#include "obs/trace.hpp"

#include "common/check.hpp"
#include "common/env.hpp"

namespace st::obs {

const char* event_kind_name(EventKind k) {
  switch (k) {
    case EventKind::kTxBegin: return "tx_begin";
    case EventKind::kTxCommit: return "tx_commit";
    case EventKind::kTxAbort: return "tx_abort";
    case EventKind::kAlpFired: return "alp_fired";
    case EventKind::kLockAcquire: return "lock_acquire";
    case EventKind::kLockRelease: return "lock_release";
    case EventKind::kLockTimeout: return "lock_timeout";
    case EventKind::kPolicyDecision: return "policy_decision";
    case EventKind::kIrrevocable: return "irrevocable";
    case EventKind::kBackoff: return "backoff";
    case EventKind::kCoreDone: return "core_done";
    case EventKind::kLineEscape: return "line_escape";
    case EventKind::kCount_: break;
  }
  return "?";
}

TraceConfig TraceConfig::from_env() {
  TraceConfig cfg;
  cfg.path = env_str("STAGTM_TRACE");
  cfg.cap_per_core = static_cast<std::size_t>(
      env_u64("STAGTM_TRACE_CAP", 1u << 16, 16, 1u << 24,
              "an integer in [16,16777216]"));
  return cfg;
}

std::string uniquify_trace_path(const std::string& path, std::size_t job) {
  const std::size_t slash = path.find_last_of('/');
  const std::size_t dot = path.find_last_of('.');
  std::string tag = std::to_string(job);
  tag.insert(tag.begin(), '.');
  if (dot == std::string::npos ||
      (slash != std::string::npos && dot < slash))
    return path + tag;
  return path.substr(0, dot) + tag + path.substr(dot);
}

TraceSink::TraceSink(unsigned cores, std::size_t cap_per_core)
    : cap_(cap_per_core) {
  ST_CHECK_MSG(cores >= 1, "TraceSink needs at least one core");
  ST_CHECK_MSG(cap_ >= 1, "TraceSink needs capacity >= 1");
  rings_.resize(cores);
  for (Ring& r : rings_) r.ev.resize(cap_);
}

std::uint64_t TraceSink::stored(sim::CoreId c) const {
  const std::uint64_t n = rings_[c].emitted;
  return n < cap_ ? n : cap_;
}

std::uint64_t TraceSink::total_dropped() const {
  std::uint64_t n = 0;
  for (unsigned c = 0; c < cores(); ++c) n += dropped(c);
  return n;
}

std::vector<TraceEvent> TraceSink::chronological(sim::CoreId c) const {
  const Ring& r = rings_[c];
  const std::uint64_t n = stored(c);
  std::vector<TraceEvent> out;
  out.reserve(static_cast<std::size_t>(n));
  const std::uint64_t start = r.emitted - n;  // oldest surviving event
  for (std::uint64_t i = 0; i < n; ++i)
    out.push_back(r.ev[static_cast<std::size_t>((start + i) % cap_)]);
  return out;
}

}  // namespace st::obs
