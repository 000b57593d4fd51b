#include "workloads/harness.hpp"

#include <chrono>
#include <cstdio>

#include "common/check.hpp"
#include "common/env.hpp"
#include "obs/trace_export.hpp"
#include "runtime/tx_executor.hpp"

namespace st::workloads {

unsigned default_max_retries() {
  return static_cast<unsigned>(env_u64("STAGTM_MAX_RETRIES", 10, 0, 100000,
                                       "an integer in [0,100000]"));
}

namespace {

/// One simulated worker thread: interleaves non-transactional "think" work
/// with atomic blocks run through the TxExecutor.
class WorkloadThread final : public sim::CoreTask {
 public:
  WorkloadThread(runtime::TxSystem& sys, Workload& wl, unsigned thread,
                 std::uint64_t ops)
      : sys_(sys), wl_(wl), exec_(sys, thread), thread_(thread), ops_(ops) {}

  sim::Cycle step(sim::Machine& m, sim::CoreId) override {
    if (finished_) return 1;
    if (active_) {
      if (!exec_.finished()) return exec_.step(m.fuse_budget());
      wl_.on_result(thread_, done_ops_, exec_.take_result());
      active_ = false;
      ++done_ops_;
    }
    if (done_ops_ >= ops_) {
      finished_ = true;
      return 1;
    }
    Workload::Op op = wl_.next_op(sys_, thread_, done_ops_);
    // Host-dispatch publication channel: next_op runs in host code, so an
    // argument can carry a pointer another core minted into this core's
    // transaction without any simulated store ever moving it. A pointer
    // still private to ANOTHER core escapes here; a pointer private to
    // this core stays private (it never left the owner's domain).
    sim::PrivacyMap& priv = sys_.privacy();
    for (std::uint64_t a : op.args)
      if (priv.foreign_private(thread_, a)) priv.publish_value(thread_, a, 0);
    sys_.stats().core(thread_).cycles_nontx += op.think;
    exec_.start(op.ab_id, std::move(op.args));
    active_ = true;
    return op.think + 1;
  }

  bool done() const override { return finished_; }

 private:
  runtime::TxSystem& sys_;
  Workload& wl_;
  runtime::TxExecutor exec_;
  unsigned thread_;
  std::uint64_t ops_;
  std::uint64_t done_ops_ = 0;
  bool active_ = false;
  bool finished_ = false;
};

}  // namespace

double RunResult::aborts_per_commit() const {
  return totals.commits == 0 ? 0.0
                             : static_cast<double>(totals.total_aborts()) /
                                   static_cast<double>(totals.commits);
}

double RunResult::wasted_over_useful() const {
  const auto useful = totals.cycles_useful_tx + totals.cycles_irrevocable;
  return useful == 0 ? 0.0
                     : static_cast<double>(totals.cycles_wasted_tx) /
                           static_cast<double>(useful);
}

double RunResult::pct_irrevocable() const {
  return totals.commits == 0
             ? 0.0
             : 100.0 * static_cast<double>(totals.irrevocable_entries) /
                   static_cast<double>(totals.commits);
}

double RunResult::pct_tm() const {
  const auto tm = totals.cycles_useful_tx + totals.cycles_wasted_tx +
                  totals.cycles_irrevocable + totals.cycles_lock_wait +
                  totals.cycles_backoff;
  const auto all = tm + totals.cycles_nontx;
  return all == 0 ? 0.0
                  : 100.0 * static_cast<double>(tm) / static_cast<double>(all);
}

double RunResult::anchor_accuracy() const {
  const auto n = totals.anchor_id_correct + totals.anchor_id_wrong;
  return n == 0 ? 1.0
                : static_cast<double>(totals.anchor_id_correct) /
                      static_cast<double>(n);
}

double RunResult::instrs_per_txn() const {
  return totals.commits == 0 ? 0.0
                             : static_cast<double>(totals.tx_instrs) /
                                   static_cast<double>(totals.commits);
}

double RunResult::alps_per_txn() const {
  return totals.commits == 0 ? 0.0
                             : static_cast<double>(totals.alp_executed) /
                                   static_cast<double>(totals.commits);
}

double RunResult::energy_estimate() const {
  const auto& t = totals;
  const double active = static_cast<double>(
      t.cycles_useful_tx + t.cycles_wasted_tx + t.cycles_irrevocable +
      t.cycles_nontx);
  return active + 0.3 * static_cast<double>(t.cycles_lock_wait) +
         0.2 * static_cast<double>(t.cycles_backoff);
}

double RunResult::host_minstr_per_s() const {
  if (wall_ms <= 0.0) return 0.0;
  return static_cast<double>(totals.interp_instrs) / (wall_ms * 1000.0);
}

runtime::RuntimeConfig make_runtime_config(const RunOptions& opt) {
  runtime::RuntimeConfig rt;
  rt.cores = opt.threads;
  rt.scheme = opt.scheme;
  rt.seed = opt.seed;
  rt.mem.pc_tag_bits = opt.pc_tag_bits;
  rt.mem.lazy_conflicts = opt.lazy_htm;
  rt.num_advisory_locks = opt.num_advisory_locks;
  rt.lock_timeout = opt.lock_timeout;
  rt.max_retries = opt.max_retries;
  rt.history_len = opt.history_len;
  rt.stm = opt.stm;
  rt.policy = opt.policy;
  rt.policy.addr_only = opt.scheme == runtime::Scheme::kAddrOnly;
  rt.macrostep = opt.macrostep;
  rt.record_commits = opt.checked;
  rt.unsafe_skip_subscription = opt.unsafe_skip_subscription;
  rt.trace = obs::TraceConfig::from_env();
  if (opt.trace_path.has_value()) rt.trace.path = *opt.trace_path;
  rt.prov = obs::ProvConfig::from_env();
  if (opt.prof_path.has_value()) rt.prov.path = *opt.prof_path;
  return rt;
}

RunResult run_workload(Workload& wl, const RunOptions& opt) {
  ST_CHECK(opt.threads >= 1);
  const auto wall_start = std::chrono::steady_clock::now();
  ir::Module m;
  wl.build_ir(m);
  const auto mode = opt.instrument_override.value_or(
      runtime::instrument_mode_for(opt.scheme));
  auto prog = stagger::compile(m, mode, opt.pc_tag_bits);

  const runtime::RuntimeConfig rt = make_runtime_config(opt);
  const check::SchedConfig sched =
      opt.sched.has_value() ? *opt.sched : check::SchedConfig::from_env();
  const std::unique_ptr<sim::SchedPerturb> perturb = check::make_perturb(sched);

  runtime::TxSystem sys(rt, prog);
  if (perturb != nullptr) sys.machine().set_perturb(perturb.get());
  wl.setup(sys);

  const auto ops = static_cast<std::uint64_t>(
      static_cast<double>(wl.ops_per_thread()) * opt.ops_scale);
  ST_CHECK(ops >= 1);
  for (unsigned t = 0; t < opt.threads; ++t)
    sys.machine().set_task(
        t, std::make_unique<WorkloadThread>(sys, wl, t, ops));

  RunResult r;
  bool stalled = false;
  if (opt.checked) {
    // A corrupted structure can trap the simulated program in a loop that
    // never reaches another commit (e.g. a transaction walking a cyclic
    // list), so run in bounded slices and stop when one passes without a
    // single commit — every legitimate wait (backoff, lock timeout, glock
    // spin behind a progressing holder) resolves far sooner.
    constexpr sim::Cycle kStallSlice = 4'000'000;
    sim::Cycle end = 0;
    while (!sys.machine().all_done()) {
      const std::uint64_t commits_before = sys.stats().total().commits;
      end = sys.run(end + kStallSlice);
      if (!sys.machine().all_done() &&
          sys.stats().total().commits == commits_before) {
        stalled = true;
        break;
      }
    }
    r.cycles = end;
  } else {
    r.cycles = sys.run();
  }
  if (opt.checked) {
    // Checker mode: the aborting verify() would kill the process on exactly
    // the corrupted states we want to report, so use the non-aborting hook.
    r.invariant_failure =
        stalled ? "no commit progress in 4000000 cycles (likely a "
                  "non-terminating corrupted execution)"
                : wl.check_invariants(sys);
    if (r.invariant_failure.empty() && sys.heap().invalid_frees() > 0)
      r.invariant_failure =
          "simulated program freed " +
          std::to_string(sys.heap().invalid_frees()) +
          " non-live block(s) (double free / wild free)";
    if (r.invariant_failure.empty()) r.state_digest = wl.state_digest(sys);
    if (runtime::CommitLog* log = sys.commit_log())
      r.commit_log = std::make_shared<runtime::CommitLog>(std::move(*log));
  } else {
    wl.verify(sys);
  }
  r.sched_mode = check::sched_mode_name(sched.mode);
  r.sched_seed = sched.enabled() ? sched.seed : 0;

  if (obs::TraceSink* sink = sys.trace()) {
    // Trace output is strictly a side channel: the notice goes to stderr
    // so bench stdout stays byte-identical with tracing on and off.
    std::string err;
    if (!obs::export_trace(*sink, rt.trace.path, &err))
      std::fprintf(stderr, "STAGTM_TRACE: %s\n", err.c_str());
    else
      std::fprintf(stderr,
                   "[trace: %s, %llu events, %llu dropped]\n",
                   rt.trace.path.c_str(),
                   static_cast<unsigned long long>([&] {
                     std::uint64_t n = 0;
                     for (unsigned c = 0; c < sink->cores(); ++c)
                       n += sink->emitted(c);
                     return n;
                   }()),
                   static_cast<unsigned long long>(sink->total_dropped()));
  }

  if (obs::ProvSink* prov = sys.prov()) {
    // Same side-channel discipline as the trace export: stderr only, so
    // bench stdout stays byte-identical with provenance on and off.
    std::string err;
    if (!obs::export_prov(*prov, rt.prov.path, &err))
      std::fprintf(stderr, "STAGTM_PROF: %s\n", err.c_str());
    else
      std::fprintf(stderr, "[prof: %s, %llu blames, %llu dropped]\n",
                   rt.prov.path.c_str(),
                   static_cast<unsigned long long>(prov->total_blame()),
                   static_cast<unsigned long long>(prov->total_dropped()));
    r.prov_enabled = true;
    r.prof_path = rt.prov.path;
    r.prov = obs::summarize_prov(obs::snapshot(*prov));
  }

  r.workload = wl.name();
  r.scheme = runtime::scheme_name(opt.scheme);
  r.threads = opt.threads;
  r.total_ops = ops * opt.threads;
  r.totals = sys.stats().total();
  r.per_core.reserve(sys.stats().cores());
  for (unsigned c = 0; c < sys.stats().cores(); ++c)
    r.per_core.push_back(sys.stats().core(c));
  r.abort_trace_dropped = sys.stats().abort_trace_dropped();
  r.conflict_addr_locality = sys.stats().conflict_addr_locality();
  r.conflict_pc_locality = sys.stats().conflict_pc_locality();
  r.static_loads_stores = prog.loads_stores_analyzed;
  r.static_anchors = prog.anchors_selected;
  r.atomic_blocks = static_cast<unsigned>(m.atomic_blocks().size());
  r.wall_ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - wall_start)
                  .count();
  r.privacy = sys.privacy().snapshot(sys.mem().privacy() != nullptr);
  return r;
}

RunResult run_workload(const std::string& name, const RunOptions& opt) {
  auto wl = make_workload(name);
  ST_CHECK_MSG(wl != nullptr, "unknown workload");
  return run_workload(*wl, opt);
}

}  // namespace st::workloads
