#include "perfbench.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <optional>

#include "obs/metrics.hpp"
#include "obs/prov.hpp"
#include "obs/trace_export.hpp"
#include "runtime/tx_executor.hpp"

namespace perfbench {

namespace rt = st::runtime;
namespace sim = st::sim;
namespace wl = st::workloads;
using Clock = std::chrono::steady_clock;

namespace {

/// Keeps the reference kernel's result alive.
volatile std::uint64_t kernel_sink = 0;

double seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

std::uint64_t xorshift(std::uint64_t& x) {
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return x;
}

/// Options shared by every cell: 16 simulated cores, paper defaults, the
/// serial event loop, the default schedule, STM and observers off. Set
/// explicitly so nothing depends on the environment.
RunOptions base_options(rt::Scheme scheme, std::uint64_t seed, double scale) {
  RunOptions o;
  o.scheme = scheme;
  o.threads = 16;
  o.seed = seed;
  o.ops_scale = scale;
  o.max_retries = 10;
  o.stm = st::stm::StmConfig{};
  o.host_threads = 1;
  o.trace_path = "";
  o.prof_path = "";
  o.sched = st::check::SchedConfig{};
  return o;
}

void add_pair(std::vector<Cell>& cells, const std::string& program,
              RunOptions control, RunOptions treatment, bool observed) {
  const std::size_t pair = cells.size() / 2;
  cells.push_back({program, std::move(control), pair, false, observed});
  cells.push_back({program, std::move(treatment), pair, true, observed});
}

void count_trace(const st::obs::TraceSink& sink, LayerCounts& c) {
  for (unsigned core = 0; core < sink.cores(); ++core)
    c.trace_events += sink.emitted(core);
  c.trace_dropped += sink.total_dropped();
}

/// Host cost of one steady_clock::now() pair, subtracted from every timed
/// call so that timing many short calls does not inflate their total.
double clock_overhead_s() {
  static const double overhead = [] {
    std::vector<double> d(201);
    for (double& x : d) {
      const auto a = Clock::now();
      x = seconds(Clock::now() - a);
    }
    std::nth_element(d.begin(), d.begin() + 100, d.end());
    return d[100];
  }();
  return overhead;
}

/// Host time spent in the layer calls made from the traced core tasks.
struct Probe {
  static constexpr std::uint64_t kStepSamplePeriod = 16;

  std::uint64_t rng = 0x9E3779B97F4A7C15ull;
  double next_op_s = 0;
  double sampled_step_s = 0;
  std::uint64_t next_op_calls = 0;
  std::uint64_t sampled_steps = 0;
  LayerCounts counts;

  /// True on about one call in kStepSamplePeriod, chosen by xorshift so the
  /// sample cannot lock onto the cores' round-robin order.
  bool sample() { return xorshift(rng) % kStepSamplePeriod == 0; }
};

/// WorkloadThread (workloads/harness.cpp) with timers around its calls into
/// the workload and the transaction executor. It never declares a step
/// window-local, so it is only meant for the serial event loop.
class TracedThread final : public sim::CoreTask {
 public:
  TracedThread(rt::TxSystem& sys, wl::Workload& w, unsigned thread,
               std::uint64_t ops, Probe& probe)
      : sys_(sys), wl_(w), exec_(sys, thread), thread_(thread), ops_(ops),
        probe_(probe) {}

  sim::Cycle step(sim::Machine& m, sim::CoreId) override {
    ++probe_.counts.task_steps;
    if (finished_) return 1;
    if (active_) {
      if (!exec_.finished()) {
        ++probe_.counts.step_calls;
        if (!probe_.sample()) return exec_.step(m.fuse_budget());
        const auto t0 = Clock::now();
        const sim::Cycle c = exec_.step(m.fuse_budget());
        probe_.sampled_step_s += seconds(Clock::now() - t0);
        ++probe_.sampled_steps;
        return c;
      }
      const auto t0 = Clock::now();
      wl_.on_result(thread_, done_ops_, exec_.take_result());
      probe_.next_op_s += seconds(Clock::now() - t0);
      ++probe_.next_op_calls;
      active_ = false;
      ++done_ops_;
    }
    if (done_ops_ >= ops_) {
      finished_ = true;
      return 1;
    }
    const auto t0 = Clock::now();
    wl::Workload::Op op = wl_.next_op(sys_, thread_, done_ops_);
    probe_.next_op_s += seconds(Clock::now() - t0);
    ++probe_.next_op_calls;
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
  rt::TxSystem& sys_;
  wl::Workload& wl_;
  rt::TxExecutor exec_;
  unsigned thread_;
  std::uint64_t ops_;
  Probe& probe_;
  std::uint64_t done_ops_ = 0;
  bool active_ = false;
  bool finished_ = false;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"paper-fig7",
                                                 "hybrid-fallback", "observed"};
  return names;
}

std::vector<Cell> make_cells(const std::string& workload, std::uint64_t seed,
                             double scale, const std::string& scratch_dir) {
  std::vector<Cell> cells;
  if (workload == "paper-fig7") {
    for (const auto& [program, factory] : wl::workload_registry())
      add_pair(cells, program, base_options(rt::Scheme::kBaseline, seed, scale),
               base_options(rt::Scheme::kStaggered, seed, scale), false);
  } else if (workload == "hybrid-fallback") {
    for (const char* program : {"list-hi", "vacation", "memcached", "kmeans"}) {
      RunOptions off = base_options(rt::Scheme::kStaggered, seed, scale);
      off.max_retries = 1;
      RunOptions on = off;
      on.stm.enabled = true;
      add_pair(cells, program, off, on, false);
    }
  } else if (workload == "observed") {
    for (const char* program : {"list-hi", "memcached", "tsp", "kmeans"}) {
      RunOptions htm = base_options(rt::Scheme::kBaseline, seed, scale);
      RunOptions stag = base_options(rt::Scheme::kStaggered, seed, scale);
      for (RunOptions* o : {&htm, &stag}) {
        // No ".json" suffix: the compact binary trace format.
        const std::string stem = scratch_dir + "/" + program + "." +
                                 rt::scheme_name(o->scheme);
        o->trace_path = stem + ".trace";
        o->prof_path = stem + ".prf";
      }
      add_pair(cells, program, htm, stag, true);
    }
  }
  return cells;
}

SimResult SimResult::of(const RunResult& r) {
  return {r.cycles, r.total_ops, r.per_core, r.totals};
}

double SimResult::throughput() const {
  return cycles == 0 ? 0.0
                     : static_cast<double>(total_ops) /
                           static_cast<double>(cycles);
}

namespace {

/// Calls f(value) for every field same_sim compares, in a fixed order.
template <typename F>
void for_each_sim_value(const SimResult& r, F&& f) {
  f(r.cycles);
  f(r.total_ops);
  f(r.per_core.size());
  for (const sim::CoreStats& cs : r.per_core) {
    for (const st::obs::CounterDef& d : st::obs::counter_registry())
      f(cs.*d.member);
    for (const st::obs::HistDef& d : st::obs::hist_registry()) {
      const st::Log2Hist& h = cs.*d.member;
      f(h.samples);
      f(h.sum);
      f(h.max);
      for (std::uint64_t b : h.buckets) f(b);
    }
  }
}

}  // namespace

bool same_sim(const SimResult& a, const SimResult& b) {
  std::vector<std::uint64_t> va, vb;
  for_each_sim_value(a, [&](std::uint64_t v) { va.push_back(v); });
  for_each_sim_value(b, [&](std::uint64_t v) { vb.push_back(v); });
  return va == vb;
}

std::uint64_t fingerprint(const SimResult& r) {
  std::uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a over 64-bit words
  for_each_sim_value(r, [&](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ull;
  });
  return h;
}

std::string check_result(const Cell& cell, const SimResult& r) {
  if (r.totals.commits != r.total_ops)
    return cell.program + ": " + std::to_string(r.totals.commits) +
           " commits for " + std::to_string(r.total_ops) + " submitted ops";
  if (!cell.observed) return "";
  const std::string& trace_path = *cell.opt.trace_path;
  std::FILE* f = std::fopen(trace_path.c_str(), "rb");
  if (f == nullptr) return trace_path + ": cannot open";
  st::obs::TraceData trace;
  std::string err;
  const bool ok = st::obs::read_binary_trace(f, &trace, &err);
  std::fclose(f);
  if (!ok) return trace_path + ": " + err;
  for (unsigned c = 0; c < trace.cores(); ++c)
    if (trace.dropped(c) != 0)
      return trace_path + ": core " + std::to_string(c) + " dropped " +
             std::to_string(trace.dropped(c)) + " events";
  const std::string& prof_path = *cell.opt.prof_path;
  st::obs::ProvData prov;
  if (!st::obs::read_prov_file(prof_path, &prov, &err))
    return prof_path + ": " + err;
  if (prov.blame_dropped() + prov.episodes_dropped() != 0)
    return prof_path + ": dropped " +
           std::to_string(prov.blame_dropped() + prov.episodes_dropped()) +
           " records";
  return "";
}

double reference_kernel_s() {
  static const std::vector<std::uint32_t> next = [] {
    constexpr std::uint32_t kSlots = 1u << 18;  // 1 MB: stays in L2
    std::vector<std::uint32_t> order(kSlots);
    for (std::uint32_t i = 0; i < kSlots; ++i) order[i] = i;
    std::uint64_t x = 0x2545F4914F6CDD1Dull;
    for (std::uint32_t i = kSlots - 1; i > 0; --i)
      std::swap(order[i], order[xorshift(x) % (i + 1)]);
    std::vector<std::uint32_t> n(kSlots);
    for (std::uint32_t i = 0; i < kSlots; ++i)
      n[order[i]] = order[(i + 1) % kSlots];
    return n;
  }();
  // Load the cycle into cache first, so the time does not depend on how
  // much the simulation that ran before it evicted.
  std::uint64_t acc = 0, x = 1;
  for (std::uint32_t v : next) acc += v;
  const auto t0 = Clock::now();
  std::uint32_t p = 0;
  for (int i = 0; i < 400'000; ++i) {
    p = next[p];
    acc += p;
  }
  for (int i = 0; i < 2'500'000; ++i) {
    switch (xorshift(x) & 7) {
      case 0: acc += x; break;
      case 1: acc ^= x >> 3; break;
      case 2: acc -= x; break;
      case 3: acc *= 3; break;
      default: acc += 1;
    }
  }
  kernel_sink = acc;
  return seconds(Clock::now() - t0);
}

double time_setup(const Cell& cell) {
  const auto t0 = Clock::now();
  std::unique_ptr<wl::Workload> w = wl::make_workload(cell.program);
  st::ir::Module m;
  w->build_ir(m);
  auto prog = st::stagger::compile(
      m,
      cell.opt.instrument_override.value_or(
          rt::instrument_mode_for(cell.opt.scheme)),
      cell.opt.pc_tag_bits);
  rt::TxSystem sys(wl::make_runtime_config(cell.opt), prog);
  w->setup(sys);
  return seconds(Clock::now() - t0);
}

SimMetrics sim_metrics(const std::vector<Cell>& cells,
                       const std::vector<SimResult>& results) {
  SimMetrics m;
  double commits = 0, aborts = 0, irrevocable = 0;
  std::vector<double> control(cells.size(), 0), treatment(cells.size(), 0);
  std::size_t pairs = 0;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const SimResult& r = results[i];
    m.sim_cycles += static_cast<double>(r.cycles);
    commits += static_cast<double>(r.totals.commits);
    aborts += static_cast<double>(r.totals.total_aborts());
    irrevocable += static_cast<double>(r.totals.irrevocable_entries);
    (cells[i].treatment ? treatment : control)[cells[i].pair] =
        r.throughput();
    pairs = std::max(pairs, cells[i].pair + 1);
  }
  double inv = 0;
  for (std::size_t p = 0; p < pairs; ++p)
    inv += treatment[p] == 0 ? 0 : control[p] / treatment[p];
  m.sim_speedup_hmean = inv == 0 ? 0 : static_cast<double>(pairs) / inv;
  m.aborts_per_commit = commits == 0 ? 0 : aborts / commits;
  m.irrevocable_pct = commits == 0 ? 0 : 100.0 * irrevocable / commits;
  return m;
}

void LayerTimes::add(const LayerTimes& o) {
  wall_s += o.wall_s;
  build_ir_s += o.build_ir_s;
  compile_s += o.compile_s;
  system_init_s += o.system_init_s;
  setup_s += o.setup_s;
  next_op_s += o.next_op_s;
  step_s += o.step_s;
  loop_self_s += o.loop_self_s;
  verify_s += o.verify_s;
  export_s += o.export_s;
  unattributed_s += o.unattributed_s;
}

void LayerCounts::add(const LayerCounts& o) {
  task_steps += o.task_steps;
  step_calls += o.step_calls;
  trace_events += o.trace_events;
  trace_dropped += o.trace_dropped;
  prof_blames += o.prof_blames;
  prof_dropped += o.prof_dropped;
}

TracedRun run_traced(const Cell& cell) {
  const RunOptions& opt = cell.opt;
  std::unique_ptr<wl::Workload> w = wl::make_workload(cell.program);
  TracedRun out;
  LayerTimes& t = out.times;
  Probe probe;

  // The same sequence of calls as workloads::run_workload (non-checked
  // mode), each layer call between its own pair of timestamps.
  const auto wall_start = Clock::now();
  auto t0 = wall_start;
  auto lap = [&t0] {
    const auto now = Clock::now();
    const double s = seconds(now - t0);
    t0 = now;
    return s;
  };
  st::ir::Module m;
  w->build_ir(m);
  t.build_ir_s = lap();
  auto prog = st::stagger::compile(
      m, opt.instrument_override.value_or(rt::instrument_mode_for(opt.scheme)),
      opt.pc_tag_bits);
  t.compile_s = lap();
  const rt::RuntimeConfig rc = wl::make_runtime_config(opt);
  const st::check::SchedConfig sched =
      opt.sched.has_value() ? *opt.sched : st::check::SchedConfig::from_env();
  const std::unique_ptr<sim::SchedPerturb> perturb =
      st::check::make_perturb(sched);
  lap();
  std::optional<rt::TxSystem> sys;
  sys.emplace(rc, prog);
  t.system_init_s = lap();
  if (perturb != nullptr) sys->machine().set_perturb(perturb.get());
  w->setup(*sys);
  t.setup_s = lap();
  const auto ops = static_cast<std::uint64_t>(
      static_cast<double>(w->ops_per_thread()) * opt.ops_scale);
  for (unsigned c = 0; c < opt.threads; ++c)
    sys->machine().set_task(
        c, std::make_unique<TracedThread>(*sys, *w, c, ops, probe));
  lap();
  out.sim.cycles = sys->run();
  const double run_s = lap();
  w->verify(*sys);
  t.verify_s = lap();
  if (st::obs::TraceSink* sink = sys->trace()) {
    std::string err;
    st::obs::export_trace(*sink, rc.trace.path, &err);
    count_trace(*sink, out.counts);
  }
  if (st::obs::ProvSink* prov = sys->prov()) {
    std::string err;
    st::obs::export_prov(*prov, rc.prov.path, &err);
    st::obs::summarize_prov(st::obs::snapshot(*prov));
    out.counts.prof_blames += prov->total_blame();
    out.counts.prof_dropped += prov->total_dropped();
  }
  t.export_s = lap();
  // Result aggregation as in run_workload; it stays unattributed.
  sys->stats().conflict_addr_locality();
  sys->stats().conflict_pc_locality();
  sys->privacy().snapshot(sys->mem().private_classification());
  out.sim.total_ops = ops * opt.threads;
  out.sim.totals = sys->stats().total();
  for (unsigned c = 0; c < sys->stats().cores(); ++c)
    out.sim.per_core.push_back(sys->stats().core(c));
  t.wall_s = seconds(Clock::now() - wall_start);

  const double tick = clock_overhead_s();
  t.next_op_s = std::max(
      0.0, probe.next_op_s - tick * static_cast<double>(probe.next_op_calls));
  const LayerCounts& n = probe.counts;
  if (probe.sampled_steps > 0) {
    const double sampled = static_cast<double>(probe.sampled_steps);
    t.step_s = std::max(0.0, probe.sampled_step_s - tick * sampled) *
               static_cast<double>(n.step_calls) / sampled;
  }
  t.loop_self_s = run_s - t.step_s - t.next_op_s;
  t.unattributed_s = t.wall_s - t.build_ir_s - t.compile_s - t.system_init_s -
                     t.setup_s - t.next_op_s - t.step_s - t.loop_self_s -
                     t.verify_s - t.export_s;
  out.counts.task_steps = n.task_steps;
  out.counts.step_calls = n.step_calls;
  return out;
}

}  // namespace perfbench
