// TxExecutor: runs one atomic block on one simulated core. Every execution
// tier (obs::Tier) goes through the same attempt lifecycle:
//
//   begin (tier gate) -> run (with ALPoints in the speculative tiers) ->
//   tier commit head -> shared commit epilogue
//     \-> abort -> advisory-lock release -> locking-policy update ->
//         polite backoff -> retry in the tier, or fall to the next one
//
// Tiers, in escalation order: kHtm (hardware transactions with lazy
// global-lock subscription, max_retries attempts) -> kStm (STAGTM_STM=on,
// src/stm: TL2 attempts whose commit locks write-set orecs, then validates
// and writes back; STAGTM_STM_RETRIES attempts) -> kIrrevocable (global
// lock, serial execution that cannot abort). With the STM tier off (the
// default) or STAGTM_STM_RETRIES=0, HTM exhaustion falls straight to the
// global lock, byte-identical to builds without src/stm.
//
// The executor is a resumable state machine: each step() performs one
// boundary instruction, one spin/backoff interval, or one fused run of
// pure-register instructions (bounded by the caller-provided cycle budget,
// see interp::Interp::step), so the discrete-event scheduler interleaves
// cores faithfully.
#pragma once

#include <array>
#include <vector>

#include "interp/interp.hpp"
#include "runtime/tx_system.hpp"

namespace st::runtime {

class TxExecutor {
 public:
  TxExecutor(TxSystem& sys, sim::CoreId core);
  ~TxExecutor();
  TxExecutor(const TxExecutor&) = delete;
  TxExecutor& operator=(const TxExecutor&) = delete;

  /// Begins executing atomic block `ab_id` with the given arguments.
  void start(unsigned ab_id, std::vector<std::uint64_t> args);

  bool idle() const { return state_ == State::kIdle; }
  bool finished() const { return state_ == State::kFinished; }
  /// Return value of the committed atomic block; resets to idle.
  std::uint64_t take_result();

  /// Advances the executor; call only while !idle() && !finished().
  /// `budget` bounds how many cycles a fused interpreter run may consume
  /// (pass sim::Machine::fuse_budget(); 1 forces single-stepping). One
  /// step may retire several pure-register instructions, but boundary
  /// instructions still execute one per step.
  sim::Cycle step(sim::Cycle budget = 1);

  sim::CoreId core() const { return core_; }
  TxSystem& system() { return sys_; }

 private:
  enum class State {
    kIdle,
    kBegin,           // waiting on the tier's gate, then starts an attempt
    kRunning,         // interpreting the block in tier_
    kStmLockAcquire,  // STM commit: locking write-set orecs, one per step
    kStmCommit,       // STM commit: validate + write back (one atomic step)
    kFinished,
  };

  class Env;
  class SpecEnv;
  class StmEnv;
  class PlainEnv;

  interp::Interp& interp() { return *interp_[static_cast<unsigned>(tier_)]; }

  /// Whether a pending abort stamp waits out the next HTM kRunning step:
  /// the step touches only this core's state (a pure-register run, a call,
  /// an inner return, or an L1 hit on a line still private to this core),
  /// so the doomed attempt retires it and observes the abort at its next
  /// other step (run_step).
  bool abort_waits() const;

  /// The tier HTM exhaustion falls to: STM when the tier is on with a
  /// nonzero retry budget, else the global lock. STM exhaustion always
  /// falls to the global lock.
  Tier fallback_tier() const;

  sim::Cycle begin_step();
  sim::Cycle run_step(sim::Cycle budget);
  /// HTM commit head: glock subscription, orec inspection, hardware
  /// commit, orec stamping; then finish_commit().
  sim::Cycle htm_commit();
  sim::Cycle stm_lock_step();
  /// STM commit head: glock check, validation + redo drain, deferred
  /// frees; then finish_commit().
  sim::Cycle stm_commit_step();
  /// Commit epilogue shared by every tier: advisory-lock release and
  /// policy update (speculative tiers), stats, trace, provenance, host
  /// publication, commit log.
  sim::Cycle finish_commit();
  /// Abort epilogue shared by the speculative tiers: the tier's abort,
  /// advisory-lock release, stats/trace/prov/policy bookkeeping, then
  /// retry (with backoff) or fall to the next tier.
  sim::Cycle retry_or_fall(htm::AbortCause cause);
  void resolve_and_train(const htm::AbortInfo& info);

  /// Adds `c` to the current attempt's cycles and returns it.
  sim::Cycle charge(sim::Cycle c) {
    attempt_cycles_ += c;
    return c;
  }
  /// Emits a trace event on this core at the current cycle (no-op with
  /// tracing off).
  void emit(obs::EventKind kind, std::uint8_t arg8, std::uint32_t a32,
            std::uint64_t a64);
  /// Charges one failed spin on a lock (advisory, TxSched or glock) as
  /// lock-wait cycles and returns its cost.
  sim::Cycle lock_spin(sim::Cycle latency);
  /// An advisory-lock wait exceeded lock_timeout: give up and run
  /// unprotected (§2). `key` is the address the lock was taken for.
  void lock_timeout(sim::Addr key);
  /// kTxSched: whole-transaction serialization lock (§7 comparison). The
  /// lock key is synthesized from the atomic-block id.
  sim::Addr sched_lock_key() const;
  /// ALPoint protocol of the speculative tiers (Fig. 5 firing rule +
  /// advisory-lock spin). Only HTM attempts observe asynchronous aborts
  /// while waiting.
  interp::ExecEnv::AlpResult alpoint(std::uint32_t alp_id,
                                     sim::Addr data_addr);

  /// HTM + STM attempts so far for this block (what h_tx_retries, the
  /// commit log, and backoff scaling count).
  unsigned total_attempts() const { return attempts_ + stm_attempts_; }

  static constexpr sim::Cycle kBeginCost = 5;
  static constexpr sim::Cycle kCommitCost = 10;
  // An abort costs a pipeline flush, register-checkpoint restore, and the
  // software handler's dispatch before the retry loop resumes.
  static constexpr sim::Cycle kAbortHandlerCost = 120;
  static constexpr sim::Cycle kSpinPad = 8;

  TxSystem& sys_;
  sim::CoreId core_;
  /// Indexed by Tier; the STM slots are null when the tier is off.
  std::array<std::unique_ptr<Env>, 3> env_;
  std::array<std::unique_ptr<interp::Interp>, 3> interp_;

  State state_ = State::kIdle;
  Tier tier_ = Tier::kHtm;
  unsigned ab_id_ = 0;
  const ir::Function* func_ = nullptr;
  std::vector<std::uint64_t> args_;
  stagger::ABContext* ctx_ = nullptr;
  unsigned attempts_ = 0;      // HTM attempts this block
  unsigned stm_attempts_ = 0;  // STM attempts this block
  /// STM-attempt allocations (rolled back on abort) and deferred frees
  /// (performed at commit, dropped on abort) — the software mirror of the
  /// HTM's tx_alloc/tx_free bookkeeping, which only arms inside a hardware
  /// transaction.
  std::vector<sim::Addr> stm_allocs_;
  std::vector<sim::Addr> stm_frees_;
  sim::Cycle attempt_cycles_ = 0;
  sim::Cycle lock_wait_accum_ = 0;  // current lock acquire sequence
  sim::Addr alp_target_ = 0;        // address being advisory-locked
  bool spinning_on_alp_ = false;
  bool last_step_lock_wait_ = false;
  std::uint64_t result_ = 0;
};

}  // namespace st::runtime
