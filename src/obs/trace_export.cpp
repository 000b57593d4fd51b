#include "obs/trace_export.hpp"

#include <cinttypes>
#include <cstring>

namespace st::obs {

TraceData snapshot(const TraceSink& sink) {
  TraceData t;
  t.cap_per_core = sink.capacity();
  t.per_core.resize(sink.cores());
  for (unsigned c = 0; c < sink.cores(); ++c) {
    t.per_core[c].emitted = sink.emitted(c);
    t.per_core[c].events = sink.chronological(c);
  }
  return t;
}

const char* abort_cause_name(std::uint8_t cause) {
  // Mirrors htm::AbortCause (None..Glock plus the STM-tier causes).
  static constexpr const char* kNames[] = {
      "none",      "conflict",       "capacity", "explicit",
      "glock",     "stm_validation", "stm_lock", "stm_glock"};
  return cause < 8 ? kNames[cause] : "?";
}

const char* policy_decision_name(std::uint8_t decision) {
  // Mirrors stagger::PolicyDecision (Training, Precise, Coarse, Promoted).
  static constexpr const char* kNames[] = {"training", "precise", "coarse",
                                           "promoted"};
  return decision < 4 ? kNames[decision] : "?";
}

// ---------------------------------------------------------------------------
// Chrome trace_event JSON
// ---------------------------------------------------------------------------

namespace {

// All names we emit are generated from fixed tables plus numbers, so this
// only has to be correct, not fast.
void json_escape(std::FILE* f, const char* s) {
  for (; *s != '\0'; ++s) {
    if (*s == '"' || *s == '\\') std::fputc('\\', f);
    std::fputc(*s, f);
  }
}

class ChromeWriter {
 public:
  explicit ChromeWriter(std::FILE* f) : f_(f) {}

  void begin() { std::fprintf(f_, "{\"traceEvents\": [\n"); }

  void end(const TraceData& t) {
    std::uint64_t dropped = 0;
    for (unsigned c = 0; c < t.cores(); ++c) dropped += t.dropped(c);
    std::fprintf(f_,
                 "\n],\n\"displayTimeUnit\": \"ms\",\n"
                 "\"otherData\": {\"clock\": \"1 trace us = 1 simulated "
                 "cycle\", \"dropped_events\": %" PRIu64 "}\n}\n",
                 dropped);
  }

  void meta(const char* name, unsigned tid, const char* value) {
    sep();
    std::fprintf(f_,
                 "{\"name\": \"%s\", \"ph\": \"M\", \"pid\": 0, "
                 "\"tid\": %u, \"args\": {\"name\": \"",
                 name, tid);
    json_escape(f_, value);
    std::fprintf(f_, "\"}}");
  }

  /// Complete ("X") span. `args_json` is a pre-rendered object body or "".
  void span(unsigned tid, const char* cat, const std::string& name,
            const char* cname, sim::Cycle ts, sim::Cycle dur,
            const std::string& args_json) {
    sep();
    std::fprintf(f_, "{\"name\": \"");
    json_escape(f_, name.c_str());
    std::fprintf(f_,
                 "\", \"cat\": \"%s\", \"ph\": \"X\", \"ts\": %" PRIu64
                 ", \"dur\": %" PRIu64 ", \"pid\": 0, \"tid\": %u",
                 cat, ts, dur, tid);
    if (cname != nullptr) std::fprintf(f_, ", \"cname\": \"%s\"", cname);
    if (!args_json.empty())
      std::fprintf(f_, ", \"args\": {%s}", args_json.c_str());
    std::fprintf(f_, "}");
  }

  /// Thread-scoped instant ("i") event.
  void instant(unsigned tid, const char* cat, const std::string& name,
               sim::Cycle ts, const std::string& args_json) {
    sep();
    std::fprintf(f_, "{\"name\": \"");
    json_escape(f_, name.c_str());
    std::fprintf(f_,
                 "\", \"cat\": \"%s\", \"ph\": \"i\", \"s\": \"t\", "
                 "\"ts\": %" PRIu64 ", \"pid\": 0, \"tid\": %u",
                 cat, ts, tid);
    if (!args_json.empty())
      std::fprintf(f_, ", \"args\": {%s}", args_json.c_str());
    std::fprintf(f_, "}");
  }

 private:
  void sep() {
    if (!first_) std::fprintf(f_, ",\n");
    first_ = false;
  }

  std::FILE* f_;
  bool first_ = true;
};

std::string u64_arg(const char* key, std::uint64_t v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "\"%s\": %" PRIu64, key, v);
  return buf;
}

std::string hex_arg(const char* key, std::uint64_t v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "\"%s\": \"0x%" PRIx64 "\"", key, v);
  return buf;
}

}  // namespace

void write_chrome_trace(const TraceData& t, std::FILE* f) {
  ChromeWriter w(f);
  w.begin();
  w.meta("process_name", 0, "stagtm simulated machine");
  for (unsigned c = 0; c < t.cores(); ++c) {
    char name[32];
    std::snprintf(name, sizeof name, "core %u", c);
    w.meta("thread_name", c, name);
  }

  for (unsigned c = 0; c < t.cores(); ++c) {
    // Span pairing state. Ring drops can orphan an end event; orphans
    // degrade to instants so a truncated trace still loads.
    bool tx_open = false, lock_open = false;
    sim::Cycle tx_start = 0, lock_start = 0;
    std::uint32_t tx_ab = 0;

    for (const TraceEvent& e : t.per_core[c].events) {
      switch (e.kind) {
        case EventKind::kTxBegin:
          tx_open = true;
          tx_start = e.at;
          tx_ab = e.a32;
          break;
        case EventKind::kIrrevocable:
          tx_open = true;
          tx_start = e.at;
          tx_ab = e.a32;
          w.instant(c, "tx", "irrevocable entry", e.at,
                    u64_arg("ab", e.a32));
          break;
        case EventKind::kTxCommit: {
          const auto tier = static_cast<Tier>(e.arg8);
          const std::string name =
              "tx" + std::to_string(e.a32) +
              (tier == Tier::kIrrevocable ? " commit (irrevocable)"
               : tier == Tier::kStm       ? " commit (stm)"
                                          : " commit");
          const std::string args =
              u64_arg("attempts", e.a64) + ", " + u64_arg("ab", e.a32);
          if (tx_open)
            w.span(c, "tx", name,
                   tier == Tier::kIrrevocable ? "yellow" : "good", tx_start,
                   e.at - tx_start, args);
          else
            w.instant(c, "tx", name, e.at, args);
          tx_open = false;
          break;
        }
        case EventKind::kTxAbort: {
          const std::string name = "tx" + std::to_string(tx_open ? tx_ab : 0) +
                                   " abort: " + abort_cause_name(e.arg8);
          std::string args = hex_arg("conflict_line", e.a64) + ", " +
                             u64_arg("pc_tag", e.pc_tag);
          if (e.a32 != 0) args += ", " + u64_arg("aborter_core", e.a32 - 1);
          if (tx_open)
            w.span(c, "tx", name, "terrible", tx_start, e.at - tx_start,
                   args);
          else
            w.instant(c, "tx", name, e.at, args);
          tx_open = false;
          break;
        }
        case EventKind::kLockAcquire:
          lock_open = true;
          lock_start = e.at;
          break;
        case EventKind::kLockRelease:
          if (lock_open)
            w.span(c, "lock", "advisory lock " + std::to_string(e.a32),
                   "grey", lock_start, e.at - lock_start,
                   u64_arg("lock", e.a32));
          else
            w.instant(c, "lock",
                      "release lock " + std::to_string(e.a32), e.at,
                      u64_arg("lock", e.a32));
          lock_open = false;
          break;
        case EventKind::kLockTimeout:
          w.instant(c, "lock",
                    "lock timeout " + std::to_string(e.a32), e.at,
                    u64_arg("waited_cycles", e.a64));
          break;
        case EventKind::kAlpFired:
          w.instant(c, "alp", "ALP " + std::to_string(e.a32), e.at,
                    hex_arg("target_line", e.a64));
          break;
        case EventKind::kPolicyDecision:
          w.instant(c, "policy",
                    std::string("policy: ") + policy_decision_name(e.arg8),
                    e.at,
                    u64_arg("anchor_alp", e.a32) + ", " +
                        hex_arg("conflict_line", e.a64));
          break;
        case EventKind::kBackoff:
          w.span(c, "tx", "backoff", "grey", e.at, e.a64,
                 u64_arg("attempt", e.a32));
          break;
        case EventKind::kCoreDone:
          w.instant(c, "sched", "core done", e.at, "");
          break;
        case EventKind::kCount_:
          break;
      }
    }
  }
  w.end(t);
}

// ---------------------------------------------------------------------------
// Compact binary format
// ---------------------------------------------------------------------------

namespace {
constexpr char kMagic[8] = {'S', 'T', 'G', 'T', 'R', 'C', '0', '1'};
}  // namespace

void write_binary_trace(const TraceData& t, std::FILE* f) {
  std::fwrite(kMagic, 1, 8, f);
  const std::uint32_t version = 1;
  const std::uint32_t cores = t.cores();
  std::fwrite(&version, 4, 1, f);
  std::fwrite(&cores, 4, 1, f);
  std::fwrite(&t.cap_per_core, 8, 1, f);
  for (const CoreTrace& ct : t.per_core) {
    const std::uint64_t stored = ct.events.size();
    std::fwrite(&ct.emitted, 8, 1, f);
    std::fwrite(&stored, 8, 1, f);
    if (stored != 0)
      std::fwrite(ct.events.data(), sizeof(TraceEvent),
                  static_cast<std::size_t>(stored), f);
  }
}

bool read_binary_trace(std::FILE* f, TraceData* out, std::string* err) {
  auto fail = [&](const char* why) {
    if (err != nullptr) *err = why;
    return false;
  };
  char magic[8];
  if (std::fread(magic, 1, 8, f) != 8 ||
      std::memcmp(magic, kMagic, 8) != 0)
    return fail("not a stagtm binary trace (bad magic)");
  std::uint32_t version = 0, cores = 0;
  if (std::fread(&version, 4, 1, f) != 1 || version != 1)
    return fail("unsupported trace version");
  if (std::fread(&cores, 4, 1, f) != 1 || cores == 0 || cores > 1024)
    return fail("implausible core count");
  TraceData t;
  if (std::fread(&t.cap_per_core, 8, 1, f) != 1)
    return fail("truncated header");
  t.per_core.resize(cores);
  for (CoreTrace& ct : t.per_core) {
    std::uint64_t stored = 0;
    if (std::fread(&ct.emitted, 8, 1, f) != 1 ||
        std::fread(&stored, 8, 1, f) != 1)
      return fail("truncated core header");
    if (stored > ct.emitted || stored > (std::uint64_t{1} << 32))
      return fail("implausible event count");
    ct.events.resize(static_cast<std::size_t>(stored));
    if (stored != 0 &&
        std::fread(ct.events.data(), sizeof(TraceEvent),
                   static_cast<std::size_t>(stored),
                   f) != static_cast<std::size_t>(stored))
      return fail("truncated event data");
  }
  *out = std::move(t);
  return true;
}

bool export_trace(const TraceSink& sink, const std::string& path,
                  std::string* err) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    if (err != nullptr) *err = "cannot open \"" + path + "\" for writing";
    return false;
  }
  const TraceData t = snapshot(sink);
  const bool json =
      path.size() >= 5 && path.compare(path.size() - 5, 5, ".json") == 0;
  if (json)
    write_chrome_trace(t, f);
  else
    write_binary_trace(t, f);
  std::fclose(f);
  return true;
}

}  // namespace st::obs
