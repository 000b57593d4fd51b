#include "obs/prov.hpp"

#include <algorithm>
#include <cstring>
#include <map>

#include "common/check.hpp"
#include "common/env.hpp"

namespace st::obs {

const char* lock_outcome_name(LockOutcome o) {
  switch (o) {
    case LockOutcome::kWaiting: return "attempt_ended";
    case LockOutcome::kAcquired: return "acquired";
    case LockOutcome::kTimeout: return "timeout";
    case LockOutcome::kAbortedWaiting: return "aborted_waiting";
  }
  return "?";
}

const char* lock_class_name(LockClass c) {
  switch (c) {
    case LockClass::kConflictAvoided: return "conflict_avoided";
    case LockClass::kFalseSerialization: return "false_serialization";
    case LockClass::kIndeterminate: return "indeterminate";
  }
  return "?";
}

ProvConfig ProvConfig::from_env() {
  ProvConfig cfg;
  cfg.path = env_str("STAGTM_PROF");
  cfg.cap_per_core = static_cast<std::size_t>(
      env_u64("STAGTM_PROF_CAP", 1u << 16, 1, 1u << 24,
              "an integer in [1,16777216]"));
  return cfg;
}

ProvSink::ProvSink(unsigned cores, std::size_t cap_per_core,
                   std::size_t footprint_lines)
    : cap_(cap_per_core), fp_cap_(footprint_lines) {
  ST_CHECK_MSG(cores >= 1, "ProvSink needs at least one core");
  ST_CHECK_MSG(cap_ >= 1, "ProvSink needs capacity >= 1");
  ST_CHECK_MSG(fp_cap_ >= 1, "ProvSink needs footprint capacity >= 1");
  percore_.resize(cores);
  for (PerCore& p : percore_) {
    p.blame_ring.resize(cap_);
    p.ep_ring.resize(cap_);
    p.fp.reserve(fp_cap_);
  }
}

void ProvSink::push_blame(sim::CoreId c, const BlameRecord& r) {
  PerCore& p = percore_[c];
  p.blame_ring[static_cast<std::size_t>(p.blame_emitted % cap_)] = r;
  ++p.blame_emitted;
}

void ProvSink::push_episode(sim::CoreId c, const LockEpisodeRecord& r) {
  PerCore& p = percore_[c];
  p.ep_ring[static_cast<std::size_t>(p.ep_emitted % cap_)] = r;
  ++p.ep_emitted;
}

void ProvSink::on_attempt_begin(sim::CoreId c, unsigned ab_id,
                                unsigned attempt) {
  PerCore& p = percore_[c];
  p.ab_id = static_cast<std::uint16_t>(ab_id);
  p.attempt = static_cast<std::uint8_t>(attempt < 255 ? attempt : 255);
  p.irrev = false;
  ++p.gen;
}

void ProvSink::on_irrev_begin(sim::CoreId c, unsigned ab_id) {
  PerCore& p = percore_[c];
  p.ab_id = static_cast<std::uint16_t>(ab_id);
  p.irrev = true;
  ++p.gen;
}

void ProvSink::on_conflict_stamp(sim::CoreId victim, sim::Addr line,
                                 sim::CoreId requester,
                                 std::uint32_t requester_pc) {
  (void)line;  // the HTM re-reports it at finalization
  PerCore& v = percore_[victim];
  const PerCore& a = percore_[requester];
  v.pending.stamped = true;
  v.pending.aggressor = requester;
  v.pending.aggressor_pc = requester_pc;
  // Sampled now, not at the victim's (later) abort finalization: by then
  // the aggressor may have committed and moved on to another block.
  v.pending.aggressor_ab = a.ab_id;
  v.pending.aggressor_irrev = a.irrev;
  v.pending.self = false;
}

void ProvSink::on_capacity_stamp(sim::CoreId c, sim::Addr line) {
  (void)line;
  PerCore& p = percore_[c];
  // Mirrors HtmSystem::mark_capacity_abort, which overwrites any earlier
  // conflict stamp: the overflow is what the attempt actually dies of.
  p.pending.stamped = true;
  p.pending.aggressor = c;  // self-conflict: the set overflow is our own
  p.pending.aggressor_pc = 0;
  p.pending.aggressor_ab = p.ab_id;
  p.pending.aggressor_irrev = false;
  p.pending.self = true;
}

void ProvSink::capture_footprint(sim::CoreId c,
                                 const std::vector<sim::Addr>& lines) {
  PerCore& p = percore_[c];
  if (p.fp_captured) return;  // first capture wins (capacity stamps early)
  p.fp.clear();
  const std::size_t n = lines.size() < fp_cap_ ? lines.size() : fp_cap_;
  p.fp.assign(lines.begin(), lines.begin() + static_cast<std::ptrdiff_t>(n));
  p.fp_truncated = lines.size() > fp_cap_;
  p.fp_captured = true;
}

void ProvSink::on_abort_finalize(sim::CoreId c, std::uint8_t cause,
                                 sim::Addr line, bool pc_tag_valid,
                                 std::uint16_t pc_tag, std::uint32_t first_pc,
                                 std::uint32_t alloc_site, int priv_owner,
                                 sim::Cycle at, bool stm_tier) {
  PerCore& p = percore_[c];
  p.finalized = true;
  BlameRecord& r = p.finalize;
  r = BlameRecord{};
  r.at = at;
  r.line = line;
  r.victim_pc = first_pc;
  r.alloc_site = alloc_site;
  r.pc_tag = pc_tag;
  r.cause = cause;
  r.victim_core = static_cast<std::uint8_t>(c);
  r.priv_owner =
      priv_owner < 0 ? 0xFF : static_cast<std::uint8_t>(priv_owner);
  if (pc_tag_valid) r.flags |= kBlamePcTagValid;
  if (priv_owner >= 0) r.flags |= kBlameLinePrivate;
  if (stm_tier) r.flags |= kBlameTierStm;
}

void ProvSink::on_lock_wait(sim::CoreId waiter, unsigned lock_idx,
                            sim::Addr data_line, int holder, sim::Cycle at) {
  PerCore& p = percore_[waiter];
  Episode& e = p.episode;
  if (e.open) return;  // continued spinning extends the first episode
  e = Episode{};
  e.open = true;
  e.rec.wait_start = at;
  e.rec.lock_idx = lock_idx;
  e.rec.data_line = data_line;
  e.rec.waiter_core = static_cast<std::uint8_t>(waiter);
  e.rec.waiter_ab = p.ab_id;
  e.rec.outcome = static_cast<std::uint8_t>(LockOutcome::kWaiting);
  if (holder >= 0 && static_cast<unsigned>(holder) < percore_.size()) {
    e.holder = static_cast<sim::CoreId>(holder);
    e.holder_gen = percore_[e.holder].gen;
    e.rec.holder_core = static_cast<std::uint8_t>(holder);
    e.rec.holder_ab = percore_[e.holder].ab_id;
    if (percore_[e.holder].irrev) e.holder_irrev = true;
  } else {
    e.rec.holder_core = 0xFF;
  }
}

namespace {
void close_wait(LockEpisodeRecord& r, LockOutcome o, sim::Cycle at) {
  if (r.outcome != static_cast<std::uint8_t>(LockOutcome::kWaiting)) return;
  r.outcome = static_cast<std::uint8_t>(o);
  r.wait_cycles = at >= r.wait_start ? at - r.wait_start : 0;
}
}  // namespace

void ProvSink::on_lock_acquired(sim::CoreId c, sim::Cycle at) {
  Episode& e = percore_[c].episode;
  if (e.open) close_wait(e.rec, LockOutcome::kAcquired, at);
}

void ProvSink::on_lock_timeout(sim::CoreId c, sim::Cycle at) {
  Episode& e = percore_[c].episode;
  if (e.open) close_wait(e.rec, LockOutcome::kTimeout, at);
}

void ProvSink::on_lock_wait_aborted(sim::CoreId c, sim::Cycle at) {
  Episode& e = percore_[c].episode;
  if (e.open) close_wait(e.rec, LockOutcome::kAbortedWaiting, at);
}

void ProvSink::resolve_episode(PerCore& p, sim::Cycle at) {
  Episode& e = p.episode;
  if (!e.open) return;
  close_wait(e.rec, LockOutcome::kWaiting, at);  // attempt ended mid-spin
  LockEpisodeRecord r = e.rec;
  if (e.holder_fp_valid) r.flags |= kEpisodeHolderFpValid;
  if (e.holder_irrev) r.flags |= kEpisodeHolderIrrev;
  const bool truncated =
      e.holder_fp_truncated || p.fp_truncated || !p.fp_captured;
  if (truncated) r.flags |= kEpisodeFpTruncated;
  if (!e.holder_fp_valid || !p.fp_captured || e.holder_fp_truncated ||
      p.fp_truncated) {
    // A missing or clipped footprint can hide the overlapping line, so no
    // claim of "false serialization" is safe (irrevocable holders have no
    // speculative footprint at all and always land here).
    r.classification =
        static_cast<std::uint8_t>(LockClass::kIndeterminate);
  } else {
    overlap_scratch_ = e.holder_fp;
    std::sort(overlap_scratch_.begin(), overlap_scratch_.end());
    unsigned overlap = 0;
    sim::Addr sample = 0;
    for (const sim::Addr a : p.fp) {
      if (std::binary_search(overlap_scratch_.begin(),
                             overlap_scratch_.end(), a)) {
        if (overlap == 0) sample = a;
        ++overlap;
      }
    }
    r.overlap_lines =
        static_cast<std::uint16_t>(overlap < 0xFFFF ? overlap : 0xFFFF);
    r.overlap_line = sample;
    r.classification = static_cast<std::uint8_t>(
        overlap > 0 ? LockClass::kConflictAvoided
                    : LockClass::kFalseSerialization);
  }
  push_episode(e.rec.waiter_core, r);
  e = Episode{};
}

void ProvSink::attempt_end(sim::CoreId c, sim::Cycle at) {
  PerCore& p = percore_[c];
  // Publish this attempt's footprint to every waiter that observed us
  // holding its lock during this attempt (generation-matched: a waiter that
  // sampled a different attempt must not inherit this footprint).
  for (PerCore& w : percore_) {
    Episode& e = w.episode;
    if (e.open && !e.holder_fp_valid && e.rec.holder_core != 0xFF &&
        e.holder == c && e.holder_gen == p.gen && p.fp_captured) {
      e.holder_fp = p.fp;
      e.holder_fp_valid = true;
      e.holder_fp_truncated = p.fp_truncated;
    }
  }
  resolve_episode(p, at);
  p.pending = PendingBlame{};
  p.finalized = false;
  p.fp_captured = false;
  p.fp_truncated = false;
}

void ProvSink::on_attempt_commit(sim::CoreId c, sim::Cycle at) {
  attempt_end(c, at);
}

void ProvSink::on_attempt_abort(sim::CoreId c, unsigned attempts,
                                sim::Cycle wasted, bool will_glock,
                                sim::Cycle at) {
  PerCore& p = percore_[c];
  if (p.finalized) {
    BlameRecord r = p.finalize;
    r.victim_ab = p.ab_id;
    r.wasted_cycles = wasted;
    r.retry = static_cast<std::uint8_t>(attempts < 255 ? attempts : 255);
    if (will_glock) r.flags |= kBlameWillGlock;
    if (p.fp_truncated) r.flags |= kBlameFpTruncated;
    if (p.pending.stamped) {
      r.flags |= kBlameHasAggressor;
      r.aggressor_core = static_cast<std::uint8_t>(p.pending.aggressor);
      r.aggressor_pc = p.pending.aggressor_pc;
      r.aggressor_ab = p.pending.aggressor_ab;
      if (p.pending.aggressor_irrev) r.flags |= kBlameAggressorIrrev;
    }
    push_blame(c, r);
  }
  attempt_end(c, at);
}

std::uint64_t ProvSink::blame_dropped(sim::CoreId c) const {
  const std::uint64_t n = percore_[c].blame_emitted;
  return n > cap_ ? n - cap_ : 0;
}

std::uint64_t ProvSink::episodes_dropped(sim::CoreId c) const {
  const std::uint64_t n = percore_[c].ep_emitted;
  return n > cap_ ? n - cap_ : 0;
}

std::uint64_t ProvSink::total_blame() const {
  std::uint64_t n = 0;
  for (const PerCore& p : percore_) n += p.blame_emitted;
  return n;
}

std::uint64_t ProvSink::total_dropped() const {
  std::uint64_t n = 0;
  for (unsigned c = 0; c < cores(); ++c)
    n += blame_dropped(c) + episodes_dropped(c);
  return n;
}

namespace {
template <typename T>
std::vector<T> ring_chronological(const std::vector<T>& ring,
                                  std::uint64_t emitted, std::size_t cap) {
  const std::uint64_t n = emitted < cap ? emitted : cap;
  std::vector<T> out;
  out.reserve(static_cast<std::size_t>(n));
  const std::uint64_t start = emitted - n;  // oldest surviving record
  for (std::uint64_t i = 0; i < n; ++i)
    out.push_back(ring[static_cast<std::size_t>((start + i) % cap)]);
  return out;
}
}  // namespace

std::vector<BlameRecord> ProvSink::blames(sim::CoreId c) const {
  const PerCore& p = percore_[c];
  return ring_chronological(p.blame_ring, p.blame_emitted, cap_);
}

std::vector<LockEpisodeRecord> ProvSink::episodes(sim::CoreId c) const {
  const PerCore& p = percore_[c];
  return ring_chronological(p.ep_ring, p.ep_emitted, cap_);
}

// ---------------------------------------------------------------------------
// Export / import.
// ---------------------------------------------------------------------------

std::uint64_t ProvData::blame_dropped() const {
  std::uint64_t n = 0;
  for (const CoreProv& c : per_core) n += c.blame_emitted - c.blames.size();
  return n;
}

std::uint64_t ProvData::episodes_dropped() const {
  std::uint64_t n = 0;
  for (const CoreProv& c : per_core)
    n += c.episodes_emitted - c.episodes.size();
  return n;
}

ProvData snapshot(const ProvSink& sink) {
  ProvData d;
  d.cap_per_core = sink.capacity();
  d.per_core.resize(sink.cores());
  for (unsigned c = 0; c < sink.cores(); ++c) {
    CoreProv& p = d.per_core[c];
    p.blame_emitted = sink.blame_emitted(c);
    p.episodes_emitted = sink.episodes_emitted(c);
    p.blames = sink.blames(c);
    p.episodes = sink.episodes(c);
  }
  return d;
}

namespace {
constexpr char kProvMagic[8] = {'S', 'T', 'G', 'P', 'R', 'F', '0', '1'};

void put_u64(std::FILE* f, std::uint64_t v) {
  std::fwrite(&v, sizeof v, 1, f);
}

bool get_u64(std::FILE* f, std::uint64_t* v) {
  return std::fread(v, sizeof *v, 1, f) == 1;
}
}  // namespace

void write_binary_prov(const ProvData& d, std::FILE* f) {
  std::fwrite(kProvMagic, sizeof kProvMagic, 1, f);
  put_u64(f, d.per_core.size());
  put_u64(f, d.cap_per_core);
  for (const CoreProv& c : d.per_core) {
    put_u64(f, c.blame_emitted);
    put_u64(f, c.blames.size());
    if (!c.blames.empty())
      std::fwrite(c.blames.data(), sizeof(BlameRecord), c.blames.size(), f);
    put_u64(f, c.episodes_emitted);
    put_u64(f, c.episodes.size());
    if (!c.episodes.empty())
      std::fwrite(c.episodes.data(), sizeof(LockEpisodeRecord),
                  c.episodes.size(), f);
  }
}

bool read_binary_prov(std::FILE* f, ProvData* out, std::string* err) {
  char magic[8];
  if (std::fread(magic, sizeof magic, 1, f) != 1 ||
      std::memcmp(magic, kProvMagic, sizeof magic) != 0) {
    if (err != nullptr) *err = "not a STGPRF01 provenance file";
    return false;
  }
  std::uint64_t cores = 0, cap = 0;
  if (!get_u64(f, &cores) || !get_u64(f, &cap) || cores == 0 ||
      cores > 4096) {
    if (err != nullptr) *err = "malformed provenance header";
    return false;
  }
  out->cap_per_core = cap;
  out->per_core.assign(static_cast<std::size_t>(cores), CoreProv{});
  for (CoreProv& c : out->per_core) {
    std::uint64_t stored = 0;
    if (!get_u64(f, &c.blame_emitted) || !get_u64(f, &stored) ||
        stored > c.blame_emitted || stored > cap) {
      if (err != nullptr) *err = "malformed blame section";
      return false;
    }
    c.blames.resize(static_cast<std::size_t>(stored));
    if (stored != 0 && std::fread(c.blames.data(), sizeof(BlameRecord),
                                  c.blames.size(), f) != c.blames.size()) {
      if (err != nullptr) *err = "truncated blame section";
      return false;
    }
    if (!get_u64(f, &c.episodes_emitted) || !get_u64(f, &stored) ||
        stored > c.episodes_emitted || stored > cap) {
      if (err != nullptr) *err = "malformed episode section";
      return false;
    }
    c.episodes.resize(static_cast<std::size_t>(stored));
    if (stored != 0 &&
        std::fread(c.episodes.data(), sizeof(LockEpisodeRecord),
                   c.episodes.size(), f) != c.episodes.size()) {
      if (err != nullptr) *err = "truncated episode section";
      return false;
    }
  }
  return true;
}

bool export_prov(const ProvSink& sink, const std::string& path,
                 std::string* err) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    if (err != nullptr) *err = "cannot open \"" + path + "\" for writing";
    return false;
  }
  write_binary_prov(snapshot(sink), f);
  std::fclose(f);
  return true;
}

bool read_prov_file(const std::string& path, ProvData* out,
                    std::string* err) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    if (err != nullptr) *err = "cannot open \"" + path + "\"";
    return false;
  }
  const bool ok = read_binary_prov(f, out, err);
  std::fclose(f);
  return ok;
}

// ---------------------------------------------------------------------------
// Post-hoc analysis.
// ---------------------------------------------------------------------------

ConflictGraph build_conflict_graph(const ProvData& d) {
  ConflictGraph g;
  // Deterministic node/edge numbering: keys are ordered, not hashed.
  std::map<std::uint64_t, std::uint32_t> node_of;
  auto node = [&](std::uint32_t site, std::uint32_t pc) {
    const std::uint64_t key = (std::uint64_t{site} << 32) | pc;
    auto [it, fresh] = node_of.try_emplace(
        key, static_cast<std::uint32_t>(g.nodes.size()));
    if (fresh) g.nodes.push_back({site, pc, 0, 0, 0});
    return it->second;
  };
  std::map<std::uint64_t, std::uint32_t> edge_of;
  for (const CoreProv& c : d.per_core) {
    for (const BlameRecord& r : c.blames) {
      const std::uint32_t v = node(r.alloc_site, r.victim_pc);
      g.nodes[v].aborts_as_victim += 1;
      g.nodes[v].wasted_cycles += r.wasted_cycles;
      if (!(r.flags & kBlameHasAggressor)) continue;
      const std::uint32_t a = node(r.alloc_site, r.aggressor_pc);
      g.nodes[a].aborts_as_aggressor += 1;
      const std::uint64_t ekey = (std::uint64_t{a} << 32) | v;
      auto [it, fresh] = edge_of.try_emplace(
          ekey, static_cast<std::uint32_t>(g.edges.size()));
      if (fresh) g.edges.push_back({a, v, 0, 0});
      ConflictGraph::Edge& e = g.edges[it->second];
      e.aborts += 1;
      e.wasted_cycles += r.wasted_cycles;
    }
  }
  std::sort(g.edges.begin(), g.edges.end(),
            [](const ConflictGraph::Edge& x, const ConflictGraph::Edge& y) {
              if (x.wasted_cycles != y.wasted_cycles)
                return x.wasted_cycles > y.wasted_cycles;
              if (x.src != y.src) return x.src < y.src;
              return x.dst < y.dst;
            });
  return g;
}

std::vector<LockEffectiveness> lock_effectiveness(const ProvData& d) {
  std::map<std::uint32_t, LockEffectiveness> by_lock;
  for (const CoreProv& c : d.per_core) {
    for (const LockEpisodeRecord& r : c.episodes) {
      LockEffectiveness& e = by_lock[r.lock_idx];
      e.lock_idx = r.lock_idx;
      e.episodes += 1;
      switch (static_cast<LockClass>(r.classification)) {
        case LockClass::kConflictAvoided:
          e.conflict_avoided += 1;
          e.avoided_wait_cycles += r.wait_cycles;
          break;
        case LockClass::kFalseSerialization:
          e.false_serialization += 1;
          e.false_wait_cycles += r.wait_cycles;
          break;
        case LockClass::kIndeterminate:
          e.indeterminate += 1;
          break;
      }
    }
  }
  std::vector<LockEffectiveness> out;
  out.reserve(by_lock.size());
  for (const auto& [idx, e] : by_lock) out.push_back(e);
  return out;
}

ProvSummary summarize_prov(const ProvData& d) {
  ProvSummary s;
  for (const CoreProv& c : d.per_core) {
    s.blame_records += c.blame_emitted;
    s.lock_episodes += c.episodes_emitted;
    for (const BlameRecord& r : c.blames)
      if (r.flags & kBlameTierStm) ++s.stm_blames;
  }
  s.blame_dropped = d.blame_dropped();
  s.episodes_dropped = d.episodes_dropped();
  for (const LockEffectiveness& e : lock_effectiveness(d)) {
    s.conflict_avoided += e.conflict_avoided;
    s.false_serialization += e.false_serialization;
    s.indeterminate += e.indeterminate;
    s.avoided_wait_cycles += e.avoided_wait_cycles;
    s.false_wait_cycles += e.false_wait_cycles;
  }
  const ConflictGraph g = build_conflict_graph(d);
  s.graph_nodes = static_cast<unsigned>(g.nodes.size());
  s.graph_edges = static_cast<unsigned>(g.edges.size());
  return s;
}

void write_prov_summary_json(std::FILE* f, const ProvSummary& s) {
  std::fprintf(
      f,
      "{\"blame_records\": %llu, \"blame_dropped\": %llu, "
      "\"lock_episodes\": %llu, \"episodes_dropped\": %llu, "
      "\"conflict_avoided\": %llu, \"false_serialization\": %llu, "
      "\"indeterminate\": %llu, \"avoided_wait_cycles\": %llu, "
      "\"false_wait_cycles\": %llu, \"stm_blames\": %llu, "
      "\"graph_nodes\": %u, \"graph_edges\": %u}",
      static_cast<unsigned long long>(s.blame_records),
      static_cast<unsigned long long>(s.blame_dropped),
      static_cast<unsigned long long>(s.lock_episodes),
      static_cast<unsigned long long>(s.episodes_dropped),
      static_cast<unsigned long long>(s.conflict_avoided),
      static_cast<unsigned long long>(s.false_serialization),
      static_cast<unsigned long long>(s.indeterminate),
      static_cast<unsigned long long>(s.avoided_wait_cycles),
      static_cast<unsigned long long>(s.false_wait_cycles),
      static_cast<unsigned long long>(s.stm_blames), s.graph_nodes,
      s.graph_edges);
}

}  // namespace st::obs
