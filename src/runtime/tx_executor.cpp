#include "runtime/tx_executor.hpp"

#include "common/check.hpp"

namespace st::runtime {

using htm::AbortCause;
using interp::ExecEnv;
using interp::Interp;

namespace {
constexpr unsigned ix(Tier t) { return static_cast<unsigned>(t); }
}  // namespace

// ---------------------------------------------------------------------------
// Execution environments, one per tier. The base holds what the tiers
// share: nontransactional accesses, allocation, and live ALPoints.
// ---------------------------------------------------------------------------
class TxExecutor::Env : public ExecEnv {
 public:
  explicit Env(TxExecutor& e) : e_(e) {}

  Mem nt_load(sim::Addr a, unsigned size) override {
    return mem(htm().nontx_load(e_.core_, a, size));
  }
  Mem nt_store(sim::Addr a, std::uint64_t v, unsigned size) override {
    return mem(htm().nontx_store(e_.core_, a, v, size));
  }
  Mem alloc(const ir::StructType* t, sim::Addr& out,
            std::uint32_t pc) override {
    out = htm().tx_alloc(e_.core_, t->size, pc);
    return Mem{out, Interp::kAllocCost, true};
  }
  void free_(sim::Addr a) override { htm().tx_free(e_.core_, a); }

  AlpResult alpoint(std::uint32_t alp_id, sim::Addr data_addr,
                    std::uint32_t) override {
    return e_.alpoint(alp_id, data_addr);
  }

 protected:
  template <class Access>
  static Mem mem(const Access& r) {
    return Mem{r.value, r.latency, r.ok};
  }
  htm::HtmSystem& htm() const { return e_.sys_.htm(); }
  TxExecutor& e_;
};

/// Speculative environment: transactional accesses.
class TxExecutor::SpecEnv final : public Env {
 public:
  using Env::Env;

  Mem load(sim::Addr a, unsigned size, std::uint32_t pc) override {
    return mem(htm().load(e_.core_, a, size, pc));
  }
  Mem store(sim::Addr a, std::uint64_t v, unsigned size,
            std::uint32_t pc) override {
    return mem(htm().store(e_.core_, a, v, size, pc));
  }
};

/// STM environment: TL2 read/write-set accesses (src/stm). Only constructed
/// when the tier is enabled.
class TxExecutor::StmEnv final : public Env {
 public:
  using Env::Env;

  Mem load(sim::Addr a, unsigned size, std::uint32_t pc) override {
    return mem(e_.sys_.stm()->read(e_.core_, a, size, pc));
  }
  Mem store(sim::Addr a, std::uint64_t v, unsigned size,
            std::uint32_t pc) override {
    (void)pc;
    const sim::Cycle lat = e_.sys_.stm()->write(e_.core_, a, v, size);
    return Mem{v, lat, true};
  }
  Mem alloc(const ir::StructType* t, sim::Addr& out,
            std::uint32_t pc) override {
    // The HTM sees no active transaction, so this is a plain allocation;
    // the executor tracks it for rollback on STM abort (retry_or_fall).
    const Mem m = Env::alloc(t, out, pc);
    e_.stm_allocs_.push_back(out);
    return m;
  }
  void free_(sim::Addr a) override {
    // Deferred like the HTM's tx_free: performed at commit, dropped on
    // abort (the block may still be read by the retry).
    e_.stm_frees_.push_back(a);
  }
};

/// Plain environment: irrevocable execution under the global lock.
class TxExecutor::PlainEnv final : public Env {
 public:
  using Env::Env;

  Mem load(sim::Addr a, unsigned size, std::uint32_t pc) override {
    (void)pc;
    return mem(htm().plain_load(e_.core_, a, size));
  }
  Mem store(sim::Addr a, std::uint64_t v, unsigned size,
            std::uint32_t pc) override {
    const auto r = htm().plain_store(e_.core_, a, v, size, pc);
    return Mem{r.value, r.latency + stamp(a), r.ok};
  }
  Mem nt_store(sim::Addr a, std::uint64_t v, unsigned size) override {
    Mem m = Env::nt_store(a, v, size);
    m.latency += stamp(a);
    return m;
  }

  AlpResult alpoint(std::uint32_t, sim::Addr, std::uint32_t) override {
    return {Interp::kInactiveAlpCost, false, true};  // ALPs idle when serial
  }

 private:
  // Irrevocable stores are committed state the moment they land; stamp the
  // covering orec so concurrent STM readers/validators observe them
  // (DESIGN.md §13 — eager coherence only aborts HTM transactions).
  sim::Cycle stamp(sim::Addr a) {
    auto* stm = e_.sys_.stm();
    return stm != nullptr ? stm->irrev_stamp(e_.core_, sim::line_addr(a)) : 0;
  }
};

// ---------------------------------------------------------------------------

TxExecutor::TxExecutor(TxSystem& sys, sim::CoreId core)
    : sys_(sys), core_(core) {
  env_[ix(Tier::kHtm)] = std::make_unique<SpecEnv>(*this);
  env_[ix(Tier::kIrrevocable)] = std::make_unique<PlainEnv>(*this);
  if (sys_.stm() != nullptr)
    env_[ix(Tier::kStm)] = std::make_unique<StmEnv>(*this);
  for (unsigned t = 0; t < env_.size(); ++t)
    if (env_[t] != nullptr) interp_[t] = std::make_unique<Interp>(*env_[t]);
}

TxExecutor::~TxExecutor() = default;

void TxExecutor::start(unsigned ab_id, std::vector<std::uint64_t> args) {
  ST_CHECK_MSG(state_ == State::kIdle, "executor already busy");
  ab_id_ = ab_id;
  func_ = sys_.program().module->atomic_blocks().at(ab_id);
  args_ = std::move(args);
  ctx_ = &sys_.abctx(core_, ab_id);
  attempts_ = 0;
  stm_attempts_ = 0;
  stm_allocs_.clear();
  stm_frees_.clear();
  lock_wait_accum_ = 0;
  // STAGTM_MAX_RETRIES=0: skip hardware transactions entirely and start in
  // the tier HTM exhaustion would fall to.
  tier_ = Tier::kHtm;
  if (sys_.config().max_retries == 0) tier_ = fallback_tier();
  state_ = State::kBegin;
}

std::uint64_t TxExecutor::take_result() {
  ST_CHECK(state_ == State::kFinished);
  state_ = State::kIdle;
  return result_;
}

bool TxExecutor::abort_waits() const {
  const auto na = interp_[ix(Tier::kHtm)]->next_access();
  using K = interp::Interp::NextAccess::Kind;
  switch (na.kind) {
    case K::kPure:
    case K::kCall:       // pushes a frame: interpreter-local
    case K::kRetInner:   // pops to the caller: interpreter-local
      return true;
    case K::kLoad:
    case K::kStore:
      // Line-crossing accesses would need two private hits; the simulator
      // forbids them anyway, so let the access path diagnose them.
      return sim::line_addr(na.addr) ==
                 sim::line_addr(na.addr + (na.size ? na.size - 1 : 0)) &&
             sys_.htm().private_hit(core_, na.addr);
    default:
      // Alloc/free, nontransactional ops, ALPoints, the final Ret.
      return false;
  }
}

Tier TxExecutor::fallback_tier() const {
  if (tier_ == Tier::kHtm && sys_.stm() != nullptr &&
      sys_.config().stm.retries > 0)
    return Tier::kStm;
  return Tier::kIrrevocable;
}

sim::Cycle TxExecutor::step(sim::Cycle budget) {
  switch (state_) {
    case State::kBegin: return begin_step();
    case State::kRunning: return run_step(budget);
    case State::kStmLockAcquire: return stm_lock_step();
    case State::kStmCommit: return stm_commit_step();
    default:
      ST_CHECK_MSG(false, "step() on an idle/finished executor");
      return 1;
  }
}

sim::Addr TxExecutor::sched_lock_key() const {
  return sys_.glock_addr() + sim::kLineBytes * (ab_id_ + 1);
}

void TxExecutor::emit(obs::EventKind kind, std::uint8_t arg8,
                      std::uint32_t a32, std::uint64_t a64) {
  if (auto* t = sys_.trace())
    t->emit(core_, {sys_.machine().now(), kind, arg8, 0, a32, a64});
}

sim::Cycle TxExecutor::lock_spin(sim::Cycle latency) {
  sys_.stats().core(core_).cycles_lock_wait += latency + kSpinPad;
  return latency + kSpinPad;
}

void TxExecutor::lock_timeout(sim::Addr key) {
  ++sys_.stats().core(core_).alp_timeouts;
  sys_.policy().on_lock_timeout(*ctx_);
  if (auto* p = sys_.prov()) p->on_lock_timeout(core_, sys_.machine().now());
  emit(obs::EventKind::kLockTimeout, 0, sys_.locks().lock_index(key),
       lock_wait_accum_);
}

interp::ExecEnv::AlpResult TxExecutor::alpoint(std::uint32_t alp_id,
                                               sim::Addr data_addr) {
  auto& st = sys_.stats().core(core_);
  stagger::ABContext& ctx = *ctx_;
  sim::Cycle cost = Interp::kInactiveAlpCost;

  if (!spinning_on_alp_) {
    ++st.alp_executed;
    if (sys_.config().scheme == Scheme::kStaggeredSW)
      cost += sys_.cpc().record(core_, data_addr, alp_id);
    // Fig. 5: fire only when this ALP is the active anchor and the data
    // address matches the remembered conflict address (or wildcard).
    if (ctx.active_anchor != alp_id) return {cost, false, true};
    sim::Addr target = data_addr != 0 ? data_addr : ctx.block_address;
    if (ctx.block_address != 0 && target != 0 &&
        sim::line_addr(target) != sim::line_addr(ctx.block_address))
      return {cost, false, true};
    if (target == 0) {  // nothing concrete to lock yet
      ctx.active_anchor = 0;
      return {cost, false, true};
    }
    alp_target_ = target;
    lock_wait_accum_ = 0;
    emit(obs::EventKind::kAlpFired, 0, alp_id, sim::line_addr(target));
  }

  // STM attempts have no asynchronous aborts to observe while waiting.
  if (tier_ == Tier::kHtm && sys_.htm().pending_abort(core_)) {
    if (auto* p = sys_.prov())
      p->on_lock_wait_aborted(core_, sys_.machine().now());
    spinning_on_alp_ = false;
    return {cost, false, false};
  }
  const auto r = sys_.locks().try_acquire(core_, alp_target_);
  if (r.acquired) {
    ctx.active_anchor = 0;  // one lock per transaction (Fig. 5 line 4)
    ++st.alp_acquires;
    spinning_on_alp_ = false;
    return {cost + r.latency, false, true};
  }
  lock_wait_accum_ += r.latency + kSpinPad;
  if (lock_wait_accum_ > sys_.config().lock_timeout) {
    // Give up and run unprotected (§2: "simply proceed when the timeout
    // expires"); correctness stays with the TM tier.
    ctx.active_anchor = 0;
    spinning_on_alp_ = false;
    lock_timeout(alp_target_);
    return {cost + r.latency, false, true};
  }
  spinning_on_alp_ = true;
  last_step_lock_wait_ = true;
  return {r.latency + kSpinPad, true, true};
}

sim::Cycle TxExecutor::begin_step() {
  // Tier gate: spin (returning the spin's cost) until the tier may start.
  sim::Cycle cost = 0;
  switch (tier_) {
    case Tier::kHtm:
      // Proactive transaction scheduling (§7 baseline): when the predictor
      // for this atomic block fired, serialize the WHOLE transaction behind
      // a lock acquired before xbegin — no partial overlap.
      if (sys_.config().scheme == Scheme::kTxSched && attempts_ == 0 &&
          ctx_->configured_anchor != 0 && !sys_.locks().holds_lock(core_)) {
        const auto r = sys_.locks().try_acquire(core_, sched_lock_key());
        if (r.acquired) {
          ++sys_.stats().core(core_).alp_acquires;
        } else {
          lock_wait_accum_ += r.latency + kSpinPad;
          if (lock_wait_accum_ <= sys_.config().lock_timeout)
            return lock_spin(r.latency);
          lock_timeout(sched_lock_key());  // proceed unprotected
        }
      }
      break;
    case Tier::kStm: {
      // STM attempts never start while an irrevocable execution holds the
      // global lock: its plain stores bypass orec locking, so running under
      // it could validate against half-applied state. Spin here (glock
      // holders are short-lived by design).
      const auto g = sys_.htm().nontx_load(core_, sys_.glock_addr(), 8);
      if (g.value != 0) return lock_spin(g.latency);
      cost = g.latency;
      break;
    }
    case Tier::kIrrevocable: {
      const auto cas =
          sys_.htm().nontx_cas(core_, sys_.glock_addr(), 0, core_ + 1);
      if (!cas.success) return lock_spin(cas.latency);
      cost = cas.latency;
      break;
    }
  }

  attempt_cycles_ = 0;
  lock_wait_accum_ = 0;
  spinning_on_alp_ = false;
  if (tier_ == Tier::kIrrevocable) {
    ++sys_.stats().core(core_).irrevocable_entries;
    emit(obs::EventKind::kIrrevocable, 0, ab_id_, total_attempts());
    if (auto* p = sys_.prov()) p->on_irrev_begin(core_, ab_id_);
    if (auto* stm = sys_.stm()) {
      // Irrevocable writes serialize after everything committed so far:
      // bump the clock once and stamp the orec of every line this execution
      // stores to at the new version (PlainEnv::store). STM attempts cannot
      // begin while the glock is held, and live ones fail validation on any
      // stamped orec they read.
      const auto clk = sys_.htm().nontx_load(core_, stm->clock_addr(), 8);
      const std::uint64_t wv = clk.value + 1;
      const auto cs = sys_.htm().nontx_store(core_, stm->clock_addr(), wv, 8);
      cost += clk.latency + cs.latency;
      stm->begin_irrev(core_, wv);
    }
    // The serial execution's cycles count from its first instruction.
  } else {
    ++(tier_ == Tier::kHtm ? attempts_ : stm_attempts_);
    emit(obs::EventKind::kTxBegin, static_cast<std::uint8_t>(tier_), ab_id_,
         total_attempts());
    if (auto* p = sys_.prov())
      p->on_attempt_begin(core_, ab_id_, total_attempts());
    ctx_->arm();
    if (sys_.config().scheme == Scheme::kStaggeredSW)
      sys_.cpc().begin_tx(core_);
    cost += kBeginCost;
    if (tier_ == Tier::kStm)
      cost += sys_.stm()->begin(core_);
    else
      sys_.htm().begin(core_);
    attempt_cycles_ += cost;
  }
  interp().start(func_, args_);
  state_ = State::kRunning;
  return cost;
}

sim::Cycle TxExecutor::run_step(sim::Cycle budget) {
  // An asynchronous (cross-core) abort stamp is observed at the next step
  // that touches state outside this core, never at a core-local one: the
  // doomed attempt keeps retiring (and the abort discards the work), just
  // as a real core keeps retiring until the abort interrupt lands. The
  // abort's timing is thus a function of the victim's own instruction
  // stream (see abort_waits).
  if (tier_ == Tier::kHtm && sys_.htm().pending_abort(core_) &&
      !abort_waits())
    return retry_or_fall(AbortCause::None);
  last_step_lock_wait_ = false;
  const auto s = interp().step(budget);
  if (s.aborted) {
    // The instruction observed the attempt's death (for STM, a read failed
    // its orec precheck: TL2 opacity abort); its cycles are part of the
    // doomed attempt.
    attempt_cycles_ += s.cycles;
    return s.cycles + retry_or_fall(tier_ == Tier::kStm
                                        ? AbortCause::StmValidation
                                        : AbortCause::None);
  }
  if (last_step_lock_wait_)
    sys_.stats().core(core_).cycles_lock_wait += s.cycles;
  else
    attempt_cycles_ += s.cycles;
  if (!s.finished) return s.cycles;

  switch (tier_) {
    case Tier::kHtm: return s.cycles + htm_commit();
    case Tier::kStm:
      if (sys_.stm()->read_only(core_))
        return s.cycles + stm_commit_step();  // nothing to lock
      lock_wait_accum_ = 0;
      state_ = State::kStmLockAcquire;
      return s.cycles;
    case Tier::kIrrevocable: {
      // The glock is released only after the commit is logged.
      const sim::Cycle cost = s.cycles + finish_commit();
      return cost +
             sys_.htm().nontx_store(core_, sys_.glock_addr(), 0, 8).latency;
    }
  }
  return s.cycles;
}

sim::Cycle TxExecutor::htm_commit() {
  sim::Cycle cost = 0;
  // Lazy subscription: read the global fallback lock transactionally right
  // before commit (§6 "Compiler and HTM Runtime"). The unsafe knob models
  // a build with the subscription compiled out (checker validation only).
  if (!sys_.config().unsafe_skip_subscription) {
    const auto sub = sys_.htm().load(core_, sys_.glock_addr(), 8, 0);
    cost += charge(sub.latency);
    if (!sub.ok) return cost + retry_or_fall(AbortCause::None);
    if (sub.value != 0) return cost + retry_or_fall(AbortCause::Glock);
  }

  // HTM<->STM coexistence (DESIGN.md §13), subscription-style: inspect the
  // orecs covering our write footprint with nontransactional loads (orec
  // words must never enter our own speculative set). A locked orec is an
  // STM writer mid-commit whose validated reads we are about to overwrite —
  // the hardware transaction yields. Then pre-bump the global version clock
  // so in-flight STM readers revalidate against this commit; the covered
  // orecs are stamped at the new version once the write set has drained.
  // (A stale bump from a commit that subsequently fails is harmless: no
  // data changed, later STM validations are merely conservative.)
  std::uint64_t stm_wv = 0;
  const std::vector<std::uint32_t>* stamp_orecs = nullptr;
  if (auto* stm = sys_.stm()) {
    const auto& lines = sys_.htm().written_lines(core_);
    if (!lines.empty()) {
      const auto& orecs = stm->orecs_for_lines(lines);
      for (std::uint32_t idx : orecs) {
        const auto w = sys_.htm().nontx_load(core_, stm->orec_addr(idx), 8);
        cost += charge(w.latency);
        if (!w.ok) return cost + retry_or_fall(AbortCause::None);
        if (stm::orec_locked(w.value))
          return cost + retry_or_fall(AbortCause::StmLock);
      }
      const auto clk = sys_.htm().nontx_load(core_, stm->clock_addr(), 8);
      cost += charge(clk.latency);
      if (!clk.ok) return cost + retry_or_fall(AbortCause::None);
      stm_wv = clk.value + 1;
      const auto cs =
          sys_.htm().nontx_store(core_, stm->clock_addr(), stm_wv, 8);
      cost += charge(cs.latency);
      stamp_orecs = &orecs;
    }
  }

  sim::Cycle publish = 0;
  if (!sys_.htm().commit(core_, &publish))
    return cost + retry_or_fall(AbortCause::None);

  if (stamp_orecs != nullptr) {
    for (std::uint32_t idx : *stamp_orecs) {
      const auto ss = sys_.htm().nontx_store(
          core_, sys_.stm()->orec_addr(idx), stm::orec_word(stm_wv, false),
          8);
      cost += charge(ss.latency);
    }
  }

  cost += charge(kCommitCost + publish);
  return cost + finish_commit();
}

sim::Cycle TxExecutor::stm_lock_step() {
  // A concurrent irrevocable execution can stamp (clobber) orecs we hold;
  // bail out before acquiring more rather than validating against its
  // half-applied writes. Observing the glock free here is enough: the
  // stamps an irrevocable execution already finished are ordinary version
  // bumps that commit-time validation checks like any other.
  const auto g = sys_.htm().nontx_load(core_, sys_.glock_addr(), 8);
  attempt_cycles_ += g.latency;
  if (g.value != 0) return g.latency + retry_or_fall(AbortCause::StmGlock);

  const auto ls = sys_.stm()->lock_next(core_);
  if (ls.status == stm::StmSystem::LockStatus::kBusy) {
    // Bounded spin on another writer's orec: same timestamp policy as the
    // advisory-lock spin. We deliberately do NOT wait while holding locks
    // forever — the timeout breaks writer-writer deadlocks.
    lock_wait_accum_ += ls.latency + kSpinPad;
    const sim::Cycle spin = lock_spin(g.latency + ls.latency);
    if (lock_wait_accum_ > sys_.config().lock_timeout)
      return ls.latency + retry_or_fall(AbortCause::StmLock);
    return spin;
  }
  attempt_cycles_ += ls.latency;
  if (ls.status == stm::StmSystem::LockStatus::kAllHeld)
    state_ = State::kStmCommit;
  return g.latency + ls.latency;
}

sim::Cycle TxExecutor::stm_commit_step() {
  auto* stm = sys_.stm();
  sim::Cycle cost = 0;
  if (!stm->read_only(core_)) {
    // Writers must not drain their redo log concurrently with an
    // irrevocable execution's plain stores. (Read-only commits need no such
    // check: validation alone proves they serialize before any in-flight
    // irrevocable writer.)
    const auto g = sys_.htm().nontx_load(core_, sys_.glock_addr(), 8);
    cost += charge(g.latency);
    if (g.value != 0) return cost + retry_or_fall(AbortCause::StmGlock);
  }
  const auto r = stm->commit(core_);
  cost += charge(r.latency + kCommitCost);
  if (!r.ok) return cost + retry_or_fall(AbortCause::StmValidation);

  // Committed: perform deferred frees, keep the attempt's allocations.
  for (sim::Addr a : stm_frees_) sys_.heap().try_dealloc(a);
  stm_frees_.clear();
  stm_allocs_.clear();
  return cost + finish_commit();
}

sim::Cycle TxExecutor::finish_commit() {
  // The serial execution counts as the final "attempt" after the failed
  // speculative (HTM + STM) tries.
  const unsigned attempt_no =
      total_attempts() + (tier_ == Tier::kIrrevocable ? 1 : 0);
  sim::Cycle cost = 0;
  if (tier_ != Tier::kIrrevocable) {
    const bool held = sys_.locks().holds_lock(core_);
    // "No contention on that lock" (§5.2): nobody queued on the lock AND
    // the transaction needed no retries — evidence the serialization was
    // not earning its keep, so the policy may decay the activation.
    const bool contended =
        sys_.locks().contended_while_held(core_) && attempt_no > 1;
    cost += sys_.locks().release(core_);
    if (sys_.config().scheme != Scheme::kBaseline)
      sys_.policy().on_commit(*ctx_, held, contended, attempt_no == 1);
  }

  auto& st = sys_.stats().core(core_);
  // HtmSystem::commit counts hardware commits; a serialized execution
  // still commits its atomic block.
  if (tier_ != Tier::kHtm) ++st.commits;
  if (tier_ == Tier::kStm) ++st.stm_commits;
  (tier_ == Tier::kIrrevocable ? st.cycles_irrevocable : st.cycles_useful_tx) +=
      attempt_cycles_;
  st.tx_instrs += interp().instrs_executed();
  st.interp_instrs += interp().instrs_executed();
  st.h_tx_cycles.add(attempt_cycles_);
  st.h_tx_retries.add(attempt_no);
  emit(obs::EventKind::kTxCommit, static_cast<std::uint8_t>(tier_), ab_id_,
       attempt_no);
  if (auto* p = sys_.prov()) p->on_attempt_commit(core_, sys_.machine().now());
  result_ = interp().result();
  // The result crosses into the host (workload next_op logic), which can
  // hand it to any other core: publication point.
  sys_.htm().publish_host_value(core_, result_);
  if (auto* log = sys_.commit_log())
    log->push_back({sys_.machine().now(), core_,
                    static_cast<std::uint16_t>(ab_id_),
                    static_cast<std::uint16_t>(attempt_no), tier_, result_,
                    args_});
  state_ = State::kFinished;
  return cost;
}

void TxExecutor::resolve_and_train(const htm::AbortInfo& info) {
  const Scheme scheme = sys_.config().scheme;
  if (scheme == Scheme::kBaseline) return;
  auto& st = sys_.stats().core(core_);
  const stagger::UnifiedAnchorTable& table = *ctx_->table();

  std::uint32_t identified = 0;
  switch (scheme) {
    case Scheme::kStaggered: {
      // Hardware conflicting-PC: the (truncated) tag indexes the unified
      // anchor table; non-anchors resolve through their pioneer.
      if (info.pc_tag_valid)
        if (const auto* e = table.lookup_tag(info.pc_tag))
          identified = e->pioneer_alp;
      break;
    }
    case Scheme::kStaggeredSW: {
      identified =
          sys_.cpc().lookup(core_, info.conflict_line).value_or(0);
      break;
    }
    case Scheme::kAddrOnly:
      identified = sys_.program().entry_alps.at(ab_id_);
      break;
    case Scheme::kTxSched:
      // Whole-transaction scheduling has no anchors; a synthetic per-block
      // id feeds the same frequency predictor.
      identified = 1 + ab_id_;
      break;
    default:
      break;
  }

  // Accuracy bookkeeping (Table 3): compare against the simulator's ground
  // truth — the full PC of the first speculative access to the line.
  if (scheme == Scheme::kStaggered || scheme == Scheme::kStaggeredSW) {
    if (const auto* truth = table.lookup_pc(info.true_first_pc)) {
      if (truth->pioneer_alp != 0) {
        if (identified == truth->pioneer_alp)
          ++st.anchor_id_correct;
        else
          ++st.anchor_id_wrong;
      }
    }
  }

  sys_.policy().on_abort(*ctx_, identified, info.conflict_line);
}

sim::Cycle TxExecutor::retry_or_fall(AbortCause cause) {
  ST_CHECK_MSG(tier_ != Tier::kIrrevocable,
               "irrevocable execution cannot abort");
  sim::Cycle cost = kAbortHandlerCost;
  htm::AbortInfo info;
  if (tier_ == Tier::kHtm) {
    info = sys_.htm().abort(core_, cause);
  } else {
    // commit() failure already released + reset; every other path aborts
    // the live attempt here.
    auto* stm = sys_.stm();
    if (stm->active(core_)) cost += stm->abort(core_);
    info.cause = cause;
    info.conflict_line = sim::line_addr(stm->conflict_addr(core_));
  }
  cost += sys_.locks().release(core_);
  spinning_on_alp_ = false;

  auto& st = sys_.stats().core(core_);
  if (tier_ == Tier::kStm) {
    // Roll back this attempt's allocations (forward order, mirroring
    // HtmSystem::abort, so the live and replayed allocator streams match);
    // drop deferred frees.
    for (sim::Addr a : stm_allocs_) sys_.heap().try_dealloc(a);
    stm_allocs_.clear();
    stm_frees_.clear();
    switch (cause) {
      case AbortCause::StmLock: ++st.stm_aborts_lock; break;
      case AbortCause::StmGlock: ++st.stm_aborts_glock; break;
      default: ++st.stm_aborts_validation; break;
    }
    // HtmSystem::abort records hardware aborts itself.
    const sim::Addr line = info.conflict_line;
    emit(obs::EventKind::kTxAbort, static_cast<std::uint8_t>(cause),
         /*aborter=*/0, line);
    if (auto* p = sys_.prov())
      p->on_abort_finalize(core_, static_cast<std::uint8_t>(cause), line,
                           /*pc_tag_valid=*/false, /*pc_tag=*/0,
                           /*first_pc=*/0, sys_.heap().alloc_site_for(line),
                           sys_.privacy().private_owner(line),
                           sys_.machine().now(), /*stm_tier=*/true);
  }

  const bool exhausted =
      tier_ == Tier::kHtm ? attempts_ >= sys_.config().max_retries
                          : stm_attempts_ >= sys_.config().stm.retries;
  const Tier next = exhausted ? fallback_tier() : tier_;
  if (auto* p = sys_.prov())
    p->on_attempt_abort(core_, total_attempts(), attempt_cycles_,
                        /*will_glock=*/next == Tier::kIrrevocable,
                        sys_.machine().now());
  st.cycles_wasted_tx += attempt_cycles_;
  // Host-throughput accounting: the doomed attempt's instructions were
  // interpreted even though they never commit.
  st.interp_instrs += interp().instrs_executed();

  // Data conflicts train the advisory-lock policy in both tiers: hardware
  // conflict aborts, and orec conflicts (the CPC map recorded this STM
  // attempt's ALP visits, so StaggeredSW resolution works the same).
  if (tier_ == Tier::kHtm ? info.cause == AbortCause::Conflict
                          : cause != AbortCause::StmGlock)
    resolve_and_train(info);

  state_ = State::kBegin;
  if (exhausted) {
    tier_ = next;
    return cost;
  }
  // Polite backoff: mean delay proportional to the retry count.
  const sim::Cycle mean = sys_.config().backoff_base * total_attempts();
  const sim::Cycle delay = sys_.rng(core_).next_below(2 * mean + 1);
  st.cycles_backoff += delay;
  st.h_tx_backoff.add(delay);
  emit(obs::EventKind::kBackoff, 0, total_attempts(), delay);
  return cost + delay;
}

}  // namespace st::runtime
