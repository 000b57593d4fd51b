// Observability layer: trace ring semantics, log2 histograms, exporters,
// the metrics registry, strict env-knob validation, and — the load-bearing
// invariant — tracing never changing a simulated result.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/env.hpp"
#include "common/histogram.hpp"
#include "htm/htm.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/trace_export.hpp"
#include "stagger/policy.hpp"
#include "workloads/harness.hpp"

namespace st::obs {
namespace {

TraceEvent ev(sim::Cycle at, EventKind k, std::uint64_t a64 = 0) {
  TraceEvent e;
  e.at = at;
  e.kind = k;
  e.a64 = a64;
  return e;
}

// ---------------------------------------------------------------- ring ----

TEST(TraceSink, StoresUpToCapacityWithoutDrops) {
  TraceSink s(2, 8);
  for (int i = 0; i < 8; ++i)
    s.emit(0, ev(i, EventKind::kTxBegin, i));
  EXPECT_EQ(s.emitted(0), 8u);
  EXPECT_EQ(s.stored(0), 8u);
  EXPECT_EQ(s.dropped(0), 0u);
  EXPECT_EQ(s.emitted(1), 0u);
  const auto events = s.chronological(0);
  ASSERT_EQ(events.size(), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(events[i].a64, std::uint64_t(i));
}

TEST(TraceSink, WrapKeepsNewestAndCountsDrops) {
  TraceSink s(1, 4);
  for (int i = 0; i < 11; ++i)
    s.emit(0, ev(i, EventKind::kTxBegin, i));
  EXPECT_EQ(s.emitted(0), 11u);
  EXPECT_EQ(s.stored(0), 4u);
  EXPECT_EQ(s.dropped(0), 7u);
  EXPECT_EQ(s.total_dropped(), 7u);
  // Survivors are the newest four, oldest first.
  const auto events = s.chronological(0);
  ASSERT_EQ(events.size(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(events[i].a64, std::uint64_t(7 + i));
}

TEST(TraceSink, MaskFiltersAtEmitTime) {
  EventMask mask = 0;
  std::string err;
  ASSERT_TRUE(parse_event_mask("lock", &mask, &err)) << err;
  TraceSink s(1, 8, mask);
  s.emit(0, ev(1, EventKind::kTxBegin));
  s.emit(0, ev(2, EventKind::kLockAcquire));
  s.emit(0, ev(3, EventKind::kLockRelease));
  s.emit(0, ev(4, EventKind::kPolicyDecision));
  EXPECT_EQ(s.emitted(0), 2u);
  EXPECT_EQ(s.chronological(0).front().kind, EventKind::kLockAcquire);
}

TEST(TraceMask, GroupsParseAndBadTokensFail) {
  EventMask mask = 0;
  std::string err;
  EXPECT_TRUE(parse_event_mask("all", &mask, &err));
  EXPECT_EQ(mask, kAllEvents);
  EXPECT_TRUE(parse_event_mask("tx,lock,policy", &mask, &err));
  EXPECT_TRUE(mask & (EventMask{1} << unsigned(EventKind::kTxAbort)));
  EXPECT_TRUE(mask & (EventMask{1} << unsigned(EventKind::kLockTimeout)));
  EXPECT_FALSE(mask & (EventMask{1} << unsigned(EventKind::kAlpFired)));
  EXPECT_FALSE(parse_event_mask("tx,bogus", &mask, &err));
  EXPECT_EQ(err, "bogus");
  EXPECT_FALSE(parse_event_mask("", &mask, &err));
}

TEST(TracePath, UniquifyInsertsJobIdBeforeExtension) {
  EXPECT_EQ(uniquify_trace_path("out.json", 3), "out.3.json");
  EXPECT_EQ(uniquify_trace_path("a/b/trace.bin", 0), "a/b/trace.0.bin");
  EXPECT_EQ(uniquify_trace_path("plain", 7), "plain.7");
  // A dot in a directory name is not an extension.
  EXPECT_EQ(uniquify_trace_path("run.d/trace", 2), "run.d/trace.2");
}

// ----------------------------------------------------------- histogram ----

TEST(Log2Hist, BucketEdges) {
  // bucket_of(v) = bit_width(v): 0 -> 0, 1 -> 1, [2,3] -> 2, [4,7] -> 3...
  EXPECT_EQ(Log2Hist::bucket_of(0), 0u);
  EXPECT_EQ(Log2Hist::bucket_of(1), 1u);
  EXPECT_EQ(Log2Hist::bucket_of(2), 2u);
  EXPECT_EQ(Log2Hist::bucket_of(3), 2u);
  EXPECT_EQ(Log2Hist::bucket_of(4), 3u);
  EXPECT_EQ(Log2Hist::bucket_of(7), 3u);
  EXPECT_EQ(Log2Hist::bucket_of(8), 4u);
  EXPECT_EQ(Log2Hist::bucket_of((1u << 16) - 1), 16u);
  EXPECT_EQ(Log2Hist::bucket_of(1u << 16), 17u);
  // The last bucket saturates rather than overflowing the array.
  EXPECT_EQ(Log2Hist::bucket_of(~std::uint64_t{0}), Log2Hist::kBuckets - 1);
}

TEST(Log2Hist, AddTracksCountSumMaxMean) {
  Log2Hist h;
  h.add(0);
  h.add(1);
  h.add(3);
  h.add(100);
  EXPECT_EQ(h.samples, 4u);
  EXPECT_EQ(h.sum, 104u);
  EXPECT_EQ(h.max, 100u);
  EXPECT_DOUBLE_EQ(h.mean(), 26.0);
  EXPECT_EQ(h.buckets[0], 1u);  // 0
  EXPECT_EQ(h.buckets[1], 1u);  // 1
  EXPECT_EQ(h.buckets[2], 1u);  // 3
  EXPECT_EQ(h.buckets[7], 1u);  // 100 in [64,127]
}

TEST(Log2Hist, MergeIsElementwise) {
  Log2Hist a, b;
  a.add(5);
  a.add(9);
  b.add(5);
  b.add(1u << 20);
  a.merge(b);
  EXPECT_EQ(a.samples, 4u);
  EXPECT_EQ(a.sum, 5u + 9u + 5u + (1u << 20));
  EXPECT_EQ(a.max, 1u << 20);
  EXPECT_EQ(a.buckets[3], 2u);  // both 5s
  EXPECT_EQ(a.buckets[21], 1u);
}

TEST(Log2Hist, MeanOnEmptyIsZero) {
  EXPECT_DOUBLE_EQ(Log2Hist{}.mean(), 0.0);
}

// ------------------------------------------------------------ registry ----

TEST(MetricsRegistry, MergeMatchesMachineStatsTotal) {
  // The registry-driven merge and MachineStats::total() must agree for
  // every registered counter — this is the drift guard: a counter added to
  // total() but not the registry (or vice versa) fails here.
  sim::MachineStats s(3);
  std::uint64_t fill = 1;
  for (unsigned c = 0; c < 3; ++c) {
    for (const CounterDef& d : counter_registry())
      s.core(c).*d.member = fill++;
    s.core(c).h_tx_cycles.add(100 * (c + 1));
    s.core(c).h_lock_hold.add(c);
  }
  const sim::CoreStats expect = s.total();
  sim::CoreStats got;
  for (unsigned c = 0; c < 3; ++c) merge_core_stats(got, s.core(c));
  for (const CounterDef& d : counter_registry())
    EXPECT_EQ(got.*d.member, expect.*d.member) << d.name;
  EXPECT_EQ(got.h_tx_cycles.samples, expect.h_tx_cycles.samples);
  EXPECT_EQ(got.h_tx_cycles.sum, expect.h_tx_cycles.sum);
  EXPECT_EQ(got.h_lock_hold.sum, expect.h_lock_hold.sum);
}

TEST(MetricsRegistry, NamesAreUniqueAndNonEmpty) {
  std::vector<std::string> names;
  for (const CounterDef& d : counter_registry()) names.push_back(d.name);
  for (const HistDef& d : hist_registry()) names.push_back(d.name);
  ASSERT_FALSE(names.empty());
  for (const std::string& n : names) EXPECT_FALSE(n.empty());
  std::sort(names.begin(), names.end());
  EXPECT_EQ(std::adjacent_find(names.begin(), names.end()), names.end());
}

// ---------------------------------------------------------- name tables ----

TEST(TraceNames, AbortCauseNamesMirrorHtmEnum) {
  // The obs layer keeps its own table to avoid depending on st_htm; these
  // assertions pin the ordering so the enums cannot drift silently.
  using htm::AbortCause;
  EXPECT_STREQ(abort_cause_name(std::uint8_t(AbortCause::None)), "none");
  EXPECT_STREQ(abort_cause_name(std::uint8_t(AbortCause::Conflict)),
               "conflict");
  EXPECT_STREQ(abort_cause_name(std::uint8_t(AbortCause::Capacity)),
               "capacity");
  EXPECT_STREQ(abort_cause_name(std::uint8_t(AbortCause::Explicit)),
               "explicit");
  EXPECT_STREQ(abort_cause_name(std::uint8_t(AbortCause::Glock)), "glock");
  EXPECT_STREQ(abort_cause_name(200), "?");
}

TEST(TraceNames, PolicyDecisionNamesMirrorPolicyEnum) {
  using stagger::PolicyDecision;
  EXPECT_STREQ(policy_decision_name(std::uint8_t(PolicyDecision::kTraining)),
               "training");
  EXPECT_STREQ(policy_decision_name(std::uint8_t(PolicyDecision::kPrecise)),
               "precise");
  EXPECT_STREQ(policy_decision_name(std::uint8_t(PolicyDecision::kCoarse)),
               "coarse");
  EXPECT_STREQ(policy_decision_name(std::uint8_t(PolicyDecision::kPromoted)),
               "promoted");
  EXPECT_STREQ(policy_decision_name(99), "?");
}

TEST(TraceNames, EventKindNamesCoverEveryKind) {
  for (unsigned k = 0; k < kNumEventKinds; ++k) {
    const char* n = event_kind_name(EventKind(k));
    ASSERT_NE(n, nullptr);
    EXPECT_STRNE(n, "?");
  }
}

// ------------------------------------------------------------ exporters ----

/// Minimal recursive-descent JSON well-formedness checker — enough to catch
/// unbalanced braces, bad commas, and unquoted keys in our own writer
/// without pulling in a JSON library.
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& s) : s_(s) {}
  bool ok() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    for (;;) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }
  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    for (;;) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }
  bool string() {
    if (peek() != '"') return false;
    for (++pos_; pos_ < s_.size(); ++pos_) {
      if (s_[pos_] == '\\') { ++pos_; continue; }
      if (s_[pos_] == '"') { ++pos_; return true; }
    }
    return false;
  }
  bool number() {
    const std::size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '-' || s_[pos_] == '+' || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E'))
      ++pos_;
    return pos_ > start;
  }
  bool literal(const char* lit) {
    const std::size_t n = std::strlen(lit);
    if (s_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }
  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])))
      ++pos_;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

std::string slurp(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  if (f == nullptr) return "";
  std::string out;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

std::string tmp_path(const char* name) {
  const char* dir = std::getenv("TMPDIR");
  return std::string(dir != nullptr && *dir != '\0' ? dir : "/tmp") + "/" +
         name;
}

TraceData busy_trace() {
  TraceSink s(2, 16);
  // Core 0: a retried transaction under an advisory lock.
  s.emit(0, ev(10, EventKind::kTxBegin));
  {
    TraceEvent e = ev(25, EventKind::kTxAbort, 0x1040);
    e.arg8 = std::uint8_t(htm::AbortCause::Conflict);
    e.pc_tag = 0x123;
    e.a32 = 2;  // aborter core 1
    s.emit(0, e);
  }
  s.emit(0, ev(40, EventKind::kBackoff, 64));
  s.emit(0, ev(104, EventKind::kAlpFired, 0x1040));
  s.emit(0, ev(110, EventKind::kLockAcquire, 0x1040));
  s.emit(0, ev(111, EventKind::kTxBegin));
  s.emit(0, ev(150, EventKind::kTxCommit, 2));
  s.emit(0, ev(151, EventKind::kLockRelease, 41));
  s.emit(0, ev(160, EventKind::kCoreDone));
  // Core 1: a policy decision, a timeout, an irrevocable run.
  {
    TraceEvent e = ev(30, EventKind::kPolicyDecision, 0x1040);
    e.arg8 = std::uint8_t(stagger::PolicyDecision::kPrecise);
    s.emit(1, e);
  }
  s.emit(1, ev(90, EventKind::kLockTimeout, 2000));
  s.emit(1, ev(95, EventKind::kIrrevocable));
  {
    TraceEvent e = ev(140, EventKind::kTxCommit, 1);
    e.arg8 = 1;  // irrevocable commit
    s.emit(1, e);
  }
  s.emit(1, ev(141, EventKind::kCoreDone));
  return snapshot(s);
}

TEST(TraceExport, ChromeTraceIsWellFormedJson) {
  const std::string path = tmp_path("obs_chrome_test.json");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  write_chrome_trace(busy_trace(), f);
  std::fclose(f);
  const std::string json = slurp(path);
  EXPECT_TRUE(JsonChecker(json).ok()) << json;
  // Spot-check the shape: a process name, spans, an abort span.
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("abort: conflict"), std::string::npos);
  EXPECT_NE(json.find("advisory lock"), std::string::npos);
  std::remove(path.c_str());
}

TEST(TraceExport, BinaryRoundTripPreservesEverything) {
  const TraceData orig = busy_trace();
  const std::string path = tmp_path("obs_binary_test.trc");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  write_binary_trace(orig, f);
  std::fclose(f);

  f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  TraceData back;
  std::string err;
  ASSERT_TRUE(read_binary_trace(f, &back, &err)) << err;
  std::fclose(f);
  std::remove(path.c_str());

  ASSERT_EQ(back.cores(), orig.cores());
  EXPECT_EQ(back.cap_per_core, orig.cap_per_core);
  for (unsigned c = 0; c < orig.cores(); ++c) {
    EXPECT_EQ(back.per_core[c].emitted, orig.per_core[c].emitted);
    ASSERT_EQ(back.per_core[c].events.size(), orig.per_core[c].events.size());
    for (std::size_t i = 0; i < orig.per_core[c].events.size(); ++i) {
      const TraceEvent& a = orig.per_core[c].events[i];
      const TraceEvent& b = back.per_core[c].events[i];
      EXPECT_EQ(a.at, b.at);
      EXPECT_EQ(a.kind, b.kind);
      EXPECT_EQ(a.arg8, b.arg8);
      EXPECT_EQ(a.pc_tag, b.pc_tag);
      EXPECT_EQ(a.a32, b.a32);
      EXPECT_EQ(a.a64, b.a64);
    }
  }
}

TEST(TraceExport, ReaderRejectsGarbage) {
  const std::string path = tmp_path("obs_garbage_test.trc");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("this is not a trace", f);
  std::fclose(f);
  f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  TraceData t;
  std::string err;
  EXPECT_FALSE(read_binary_trace(f, &t, &err));
  EXPECT_FALSE(err.empty());
  std::fclose(f);
  std::remove(path.c_str());
}

// ----------------------------------------------- the observer invariant ----

/// Every deterministic field of two RunResults must match; the only
/// legitimately differing field is host wall time.
void expect_same_simulation(const workloads::RunResult& a,
                            const workloads::RunResult& b) {
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.total_ops, b.total_ops);
  for (const CounterDef& d : counter_registry())
    EXPECT_EQ(a.totals.*d.member, b.totals.*d.member) << d.name;
  ASSERT_EQ(a.per_core.size(), b.per_core.size());
  for (std::size_t c = 0; c < a.per_core.size(); ++c)
    for (const CounterDef& d : counter_registry())
      EXPECT_EQ(a.per_core[c].*d.member, b.per_core[c].*d.member)
          << "core " << c << " " << d.name;
  EXPECT_EQ(a.abort_trace_dropped, b.abort_trace_dropped);
  EXPECT_DOUBLE_EQ(a.conflict_addr_locality, b.conflict_addr_locality);
  EXPECT_DOUBLE_EQ(a.conflict_pc_locality, b.conflict_pc_locality);
}

TEST(TraceDifferential, TracingDoesNotPerturbSimulatedResults) {
  workloads::RunOptions o;
  o.scheme = runtime::Scheme::kStaggered;
  o.threads = 4;
  o.ops_scale = 0.05;
  o.trace_path = std::string();  // force tracing off
  const auto off = workloads::run_workload("list-hi", o);

  const std::string path = tmp_path("obs_differential.trc");
  o.trace_path = path;
  const auto on = workloads::run_workload("list-hi", o);
  expect_same_simulation(off, on);
  EXPECT_GT(on.totals.commits, 0u);

  // And the trace itself must be readable and consistent with the stats.
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  TraceData t;
  std::string err;
  ASSERT_TRUE(read_binary_trace(f, &t, &err)) << err;
  std::fclose(f);
  std::remove(path.c_str());
  ASSERT_EQ(t.cores(), 4u);
  std::uint64_t commits = 0;
  for (unsigned c = 0; c < t.cores(); ++c)
    for (const TraceEvent& e : t.per_core[c].events)
      if (e.kind == EventKind::kTxCommit) ++commits;
  EXPECT_EQ(commits, on.totals.commits);
}

TEST(TraceDifferential, TinyRingStillDoesNotPerturbResults) {
  workloads::RunOptions o;
  o.threads = 2;
  o.ops_scale = 0.05;
  o.scheme = runtime::Scheme::kStaggered;
  o.trace_path = std::string();
  const auto off = workloads::run_workload("list-hi", o);

  // A 16-entry ring guarantees heavy wraparound; drops must stay invisible
  // to the simulation.
  ASSERT_EQ(setenv("STAGTM_TRACE_CAP", "16", 1), 0);
  const std::string path = tmp_path("obs_tiny_ring.trc");
  o.trace_path = path;
  const auto on = workloads::run_workload("list-hi", o);
  unsetenv("STAGTM_TRACE_CAP");
  expect_same_simulation(off, on);

  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  TraceData t;
  std::string err;
  ASSERT_TRUE(read_binary_trace(f, &t, &err)) << err;
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_EQ(t.cap_per_core, 16u);
  std::uint64_t dropped = 0;
  for (unsigned c = 0; c < t.cores(); ++c) dropped += t.dropped(c);
  EXPECT_GT(dropped, 0u);
}

// ------------------------------------------------------------ env knobs ----

using ObsEnvDeath = ::testing::Test;

TEST(ObsEnvDeath, BadTraceCapExits2) {
  ASSERT_EQ(setenv("STAGTM_TRACE", "/tmp/x.trc", 1), 0);
  ASSERT_EQ(setenv("STAGTM_TRACE_CAP", "banana", 1), 0);
  EXPECT_EXIT(TraceConfig::from_env(), ::testing::ExitedWithCode(2),
              "STAGTM_TRACE_CAP must be");
  ASSERT_EQ(setenv("STAGTM_TRACE_CAP", "0", 1), 0);  // below minimum
  EXPECT_EXIT(TraceConfig::from_env(), ::testing::ExitedWithCode(2),
              "STAGTM_TRACE_CAP must be");
  unsetenv("STAGTM_TRACE_CAP");
  unsetenv("STAGTM_TRACE");
}

TEST(ObsEnvDeath, BadTraceEventsExits2) {
  ASSERT_EQ(setenv("STAGTM_TRACE", "/tmp/x.trc", 1), 0);
  ASSERT_EQ(setenv("STAGTM_TRACE_EVENTS", "tx,nonsense", 1), 0);
  EXPECT_EXIT(TraceConfig::from_env(), ::testing::ExitedWithCode(2),
              "STAGTM_TRACE_EVENTS must be");
  unsetenv("STAGTM_TRACE_EVENTS");
  unsetenv("STAGTM_TRACE");
}

TEST(ObsEnv, TraceKnobsParse) {
  ASSERT_EQ(setenv("STAGTM_TRACE", "/tmp/knobs.json", 1), 0);
  ASSERT_EQ(setenv("STAGTM_TRACE_CAP", "1024", 1), 0);
  ASSERT_EQ(setenv("STAGTM_TRACE_EVENTS", "tx,lock", 1), 0);
  const TraceConfig cfg = TraceConfig::from_env();
  EXPECT_TRUE(cfg.enabled());
  EXPECT_EQ(cfg.path, "/tmp/knobs.json");
  EXPECT_EQ(cfg.cap_per_core, 1024u);
  EXPECT_TRUE(cfg.mask & (EventMask{1} << unsigned(EventKind::kTxCommit)));
  EXPECT_FALSE(cfg.mask & (EventMask{1} << unsigned(EventKind::kBackoff)));
  unsetenv("STAGTM_TRACE_EVENTS");
  unsetenv("STAGTM_TRACE_CAP");
  unsetenv("STAGTM_TRACE");
  const TraceConfig off = TraceConfig::from_env();
  EXPECT_FALSE(off.enabled());
  EXPECT_EQ(off.mask, kAllEvents);
}

}  // namespace
}  // namespace st::obs
