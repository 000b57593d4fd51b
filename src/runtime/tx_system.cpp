#include "runtime/tx_system.hpp"

#include "common/check.hpp"

namespace st::runtime {

const char* scheme_name(Scheme s) {
  switch (s) {
    case Scheme::kBaseline: return "HTM";
    case Scheme::kAddrOnly: return "AddrOnly";
    case Scheme::kStaggered: return "Staggered";
    case Scheme::kStaggeredSW: return "Staggered+SW";
    case Scheme::kTxSched: return "TxSched";
  }
  return "?";
}

stagger::InstrumentMode instrument_mode_for(Scheme s) {
  switch (s) {
    case Scheme::kBaseline: return stagger::InstrumentMode::kNone;
    case Scheme::kAddrOnly: return stagger::InstrumentMode::kEntryOnly;
    case Scheme::kStaggered:
    case Scheme::kStaggeredSW: return stagger::InstrumentMode::kAnchors;
    case Scheme::kTxSched: return stagger::InstrumentMode::kNone;
  }
  return stagger::InstrumentMode::kNone;
}

TxSystem::TxSystem(const RuntimeConfig& cfg, stagger::CompiledProgram& prog)
    : cfg_(cfg),
      prog_(prog),
      stats_(cfg.cores),
      machine_(cfg.cores),
      heap_(cfg.cores + 1, cfg.arena_bytes),
      priv_(heap_),
      policy_(cfg.policy) {
  ST_CHECK_MSG(prog.module != nullptr && prog.module->finalized(),
               "TxSystem needs a compiled, finalized program");
  cfg_.mem.cores = cfg_.cores;
  machine_.set_step_fusion(cfg_.macrostep);
  if (cfg_.trace.enabled())
    trace_ = std::make_unique<obs::TraceSink>(
        cfg_.cores, cfg_.trace.cap_per_core, cfg_.trace.mask);
  if (cfg_.prov.enabled())
    prov_ = std::make_unique<obs::ProvSink>(cfg_.cores, cfg_.prov.cap_per_core,
                                            cfg_.prov.footprint_lines);
  if (cfg_.record_commits) commit_log_ = std::make_unique<CommitLog>();
  machine_.set_trace(trace_.get());
  mem_ = std::make_unique<sim::MemorySystem>(cfg_.mem, stats_);
  htm_ = std::make_unique<htm::HtmSystem>(heap_, *mem_, stats_);
  htm_->set_clock([this] { return machine_.now(); });
  htm_->set_trace(trace_.get());
  htm_->set_prov(prov_.get());
  // Allocation-site tracking feeds abort attribution; pure observer (the
  // site map is never read by anything simulated), so it is gated with the
  // sink rather than always on.
  if (prov_ != nullptr) heap_.set_site_tracking(true);
  // Privacy wiring, before any allocation (the glock below must be seeded
  // through on_alloc like everything else): the heap reports block extents,
  // the HTM reports publications, and the memory system counts and traces
  // the escapes.
  heap_.set_privacy(&priv_);
  priv_.set_sink(mem_.get());
  mem_->set_privacy(&priv_);
  mem_->set_trace(trace_.get());
  mem_->set_clock([this] { return machine_.now(); });
  htm_->set_privacy(&priv_);
  locks_ = std::make_unique<stagger::AdvisoryLockTable>(
      *htm_, cfg_.num_advisory_locks);
  locks_->set_trace(trace_.get());
  locks_->set_prov(prov_.get());
  policy_.set_trace(trace_.get(), [this] { return machine_.now(); });
  cpc_ = std::make_unique<stagger::CpcMap>(*htm_);
  glock_ = heap_.alloc_line_aligned(heap_.setup_arena(), 8);
  if (cfg_.stm.enabled) {
    // STM metadata lives after the glock in the setup arena; with the tier
    // off neither allocation happens, so the heap layout — and therefore
    // every simulated address and result — is byte-identical to a run
    // without the tier.
    const sim::Addr clock_addr =
        heap_.alloc_line_aligned(heap_.setup_arena(), 8);
    const sim::Addr orec_base = heap_.alloc_line_aligned(
        heap_.setup_arena(), std::uint64_t{cfg_.stm.orecs} * 8);
    stm_ = std::make_unique<stm::StmSystem>(*htm_, cfg_.stm, cfg_.cores,
                                            clock_addr, orec_base);
  }

  const unsigned num_abs =
      static_cast<unsigned>(prog.module->atomic_blocks().size());
  ST_CHECK(prog.tables.size() == num_abs);
  rngs_.reserve(cfg_.cores);
  abctx_.reserve(static_cast<std::size_t>(cfg_.cores) * num_abs);
  for (unsigned c = 0; c < cfg_.cores; ++c) {
    rngs_.emplace_back(mix64(cfg_.seed) ^ (0x1234'5678ull * (c + 1)));
    for (unsigned ab = 0; ab < num_abs; ++ab) {
      abctx_.push_back(std::make_unique<stagger::ABContext>(
          prog.tables[ab].get(), cfg_.history_len));
      abctx_.back()->core = c;
      abctx_.back()->ab_id = ab;
    }
  }
}

stagger::ABContext& TxSystem::abctx(sim::CoreId c, unsigned ab_id) {
  const unsigned num_abs =
      static_cast<unsigned>(prog_.module->atomic_blocks().size());
  ST_CHECK(c < cfg_.cores && ab_id < num_abs);
  return *abctx_[static_cast<std::size_t>(c) * num_abs + ab_id];
}

sim::Cycle TxSystem::run(sim::Cycle max_cycles) {
  return machine_.run(max_cycles);
}

}  // namespace st::runtime
