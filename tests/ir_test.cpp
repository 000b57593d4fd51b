#include <gtest/gtest.h>

#include <barrier>
#include <thread>
#include <vector>

#include "interp/interp.hpp"
#include "ir/builder.hpp"
#include "ir/printer.hpp"
#include "ir/verifier.hpp"
#include "multicore.hpp"

namespace st::ir {
namespace {

TEST(Types, MakeStructAssignsNaturallyAlignedOffsets) {
  const StructType t = make_struct(
      "s", {{"a", 0, 1, nullptr}, {"b", 0, 4, nullptr}, {"c", 0, 8, nullptr},
            {"d", 0, 2, nullptr}});
  EXPECT_EQ(t.fields[0].offset, 0u);
  EXPECT_EQ(t.fields[1].offset, 4u);   // aligned up from 1
  EXPECT_EQ(t.fields[2].offset, 8u);
  EXPECT_EQ(t.fields[3].offset, 16u);
  EXPECT_EQ(t.size, 24u);  // padded to 8
}

TEST(Types, FieldIndexLookup) {
  const StructType t = make_struct("s", {{"x", 0, 8, nullptr},
                                         {"y", 0, 8, nullptr}});
  EXPECT_EQ(t.field_index("x"), 0u);
  EXPECT_EQ(t.field_index("y"), 1u);
  EXPECT_DEATH(t.field_index("z"), "unknown");
}

TEST(Types, MakeArray) {
  const StructType a = make_array("arr", 8, 100, nullptr);
  EXPECT_TRUE(a.is_array);
  EXPECT_EQ(a.size, 800u);
  EXPECT_EQ(a.elem_count, 100u);
}

TEST(Module, TypeAndFunctionInterning) {
  Module m;
  const StructType* t = m.add_type(make_struct("node", {{"v", 0, 8, nullptr}}));
  EXPECT_EQ(m.find_type("node"), t);
  EXPECT_EQ(m.find_type("nope"), nullptr);
  Function* f = m.add_function("foo", {t});
  EXPECT_EQ(m.find_function("foo"), f);
  EXPECT_DEATH(m.add_function("foo", {}), "duplicate");
}

TEST(Builder, EmitsAStraightLineFunction) {
  Module m;
  FunctionBuilder b(m, "addmul", {nullptr, nullptr});
  const Reg s = b.add(b.param(0), b.param(1));
  const Reg p = b.mul(s, b.const_i(3));
  b.ret(p);
  EXPECT_TRUE(verify_function(*b.function()).empty());
  EXPECT_EQ(b.function()->entry()->instrs().size(), 4u);
}

TEST(Builder, WhileLoopBuildsWellFormedCfg) {
  Module m;
  FunctionBuilder b(m, "count", {nullptr});
  const Reg i = b.var(b.const_i(0));
  b.while_([&] { return b.cmp_slt(i, b.param(0)); },
           [&] { b.assign(i, b.add(i, b.const_i(1))); });
  b.ret(i);
  EXPECT_TRUE(verify_function(*b.function()).empty());
  EXPECT_GE(b.function()->blocks().size(), 4u);
}

TEST(Builder, IfElseJoinsControlFlow) {
  Module m;
  FunctionBuilder b(m, "max", {nullptr, nullptr});
  const Reg out = b.var(b.param(0));
  b.if_else(b.cmp_slt(b.param(0), b.param(1)),
            [&] { b.assign(out, b.param(1)); }, [] {});
  b.ret(out);
  EXPECT_TRUE(verify_function(*b.function()).empty());
}

TEST(Builder, FieldAccessorsCarryTypeInfo) {
  Module m;
  StructType node = make_struct("node", {{"v", 0, 8, nullptr},
                                         {"next", 0, 8, nullptr}});
  const StructType* nt = m.add_type(std::move(node));
  const_cast<StructType*>(nt)->fields[1].pointee = nt;
  FunctionBuilder b(m, "walk", {nt});
  const Reg n = b.load_field(b.param(0), nt, "next");
  b.ret(n);
  // The load of a pointer field records its pointee type for DSA.
  const auto& ins = b.function()->entry()->instrs();
  bool found = false;
  for (const auto& i : ins)
    if (i.op == Op::Load) {
      EXPECT_EQ(i.type, nt);
      found = true;
    }
  EXPECT_TRUE(found);
}

TEST(Verifier, CatchesMissingTerminator) {
  Module m;
  Function* f = m.add_function("bad", {});
  f->add_block("entry");
  const auto errs = verify_function(*f);
  ASSERT_FALSE(errs.empty());
  EXPECT_NE(errs[0].find("terminator"), std::string::npos);
}

TEST(Verifier, CatchesForeignBranchTarget) {
  Module m;
  Function* f = m.add_function("bad", {});
  Function* g = m.add_function("other", {});
  BasicBlock* fe = f->add_block("entry");
  BasicBlock* ge = g->add_block("entry");
  Instr br;
  br.op = Op::Br;
  br.t1 = ge;
  fe->instrs().push_back(br);
  const auto errs = verify_function(*f);
  ASSERT_FALSE(errs.empty());
  EXPECT_NE(errs[0].find("foreign"), std::string::npos);
}

TEST(Verifier, CatchesArityMismatch) {
  Module m;
  Function* callee = m.add_function("callee", {nullptr, nullptr});
  {
    FunctionBuilder cb(m, "callee_impl", {});
    (void)cb;
  }
  Function* f = m.add_function("caller", {});
  BasicBlock* bb = f->add_block("entry");
  Instr call;
  call.op = Op::Call;
  call.dst = f->fresh_reg();
  call.callee = callee;
  call.args = {};  // should be 2
  bb->instrs().push_back(call);
  Instr ret;
  ret.op = Op::Ret;
  bb->instrs().push_back(ret);
  const auto errs = verify_function(*f);
  ASSERT_FALSE(errs.empty());
  EXPECT_NE(errs[0].find("arity"), std::string::npos);
}

TEST(Module, FinalizeAssignsUniqueNonZeroPcs) {
  Module m;
  FunctionBuilder b(m, "f", {nullptr});
  b.ret(b.add(b.param(0), b.const_i(1)));
  m.finalize();
  std::set<std::uint32_t> pcs;
  for (const auto& ins : b.function()->entry()->instrs()) {
    EXPECT_NE(ins.pc, 0u);
    EXPECT_TRUE(pcs.insert(ins.pc).second);
    EXPECT_EQ(m.instr_at(ins.pc), &ins);
  }
  EXPECT_EQ(m.instr_at(0), nullptr);
}

TEST(Module, FinalizeDecodesEveryFunction) {
  Module m;
  FunctionBuilder callee(m, "callee", {nullptr});
  callee.ret(callee.add(callee.param(0), callee.const_i(1)));
  FunctionBuilder unused(m, "unused", {});
  unused.ret(unused.const_i(3));
  m.finalize();
  for (const auto& f : m.functions())
    EXPECT_EQ(f->decoded().code.size(), f->instr_count()) << f->name();
}

TEST(ModuleDeath, DecodedBeforeFinalizeFails) {
  Module m;
  FunctionBuilder b(m, "f", {nullptr});
  b.ret(b.param(0));
  EXPECT_DEATH(b.function()->decoded(), "function not decoded");
}

TEST(ModuleDeath, AddBlockOnDecodedFunctionFails) {
  Module m;
  FunctionBuilder b(m, "f", {nullptr});
  b.ret(b.param(0));
  m.finalize();
  EXPECT_DEATH(b.function()->add_block("late"),
               "add_block on a decoded function");
}

TEST(Printer, RendersRecognizableText) {
  Module m;
  FunctionBuilder b(m, "pretty", {nullptr});
  b.ret(b.add(b.param(0), b.const_i(7)));
  const std::string s = print_function(*b.function());
  EXPECT_NE(s.find("func @pretty"), std::string::npos);
  EXPECT_NE(s.find("add"), std::string::npos);
  EXPECT_NE(s.find("ret"), std::string::npos);
}

TEST(Function, RpoStartsAtEntryAndSkipsUnreachable) {
  Module m;
  Function* f = m.add_function("f", {});
  BasicBlock* e = f->add_block("entry");
  BasicBlock* next = f->add_block("next");
  f->add_block("orphan");  // unreachable
  Instr br;
  br.op = Op::Br;
  br.t1 = next;
  e->instrs().push_back(br);
  Instr ret;
  ret.op = Op::Ret;
  next->instrs().push_back(ret);
  const auto& rpo = f->rpo();
  ASSERT_EQ(rpo.size(), 2u);
  EXPECT_EQ(rpo[0], e);
  EXPECT_EQ(rpo[1], next);
}

TEST(CallGraphs, AtomicBlockRegistration) {
  Module m;
  FunctionBuilder b(m, "ab0", {});
  b.ret();
  EXPECT_EQ(m.add_atomic_block(b.function()), 0u);
  EXPECT_EQ(m.atomic_blocks().size(), 1u);
}

/// Memory-free env: the functions below only compute and call.
struct PureEnv final : interp::ExecEnv {
  Mem load(sim::Addr, unsigned, std::uint32_t) override { return {}; }
  Mem store(sim::Addr, std::uint64_t, unsigned, std::uint32_t) override {
    return {};
  }
  Mem nt_load(sim::Addr, unsigned) override { return {}; }
  Mem nt_store(sim::Addr, std::uint64_t, unsigned) override { return {}; }
  Mem alloc(const StructType*, sim::Addr& out, std::uint32_t) override {
    out = 0;
    return {};
  }
  void free_(sim::Addr) override {}
  AlpResult alpoint(std::uint32_t, sim::Addr, std::uint32_t) override {
    return {};
  }
};

struct InterpRun {
  std::uint64_t result = 0;
  std::uint64_t instrs = 0;
  sim::Cycle cycles = 0;
  bool operator==(const InterpRun&) const = default;
};

InterpRun run_interp(const Function* f, std::uint64_t arg,
                     sim::Cycle budget) {
  PureEnv env;
  interp::Interp it(env);
  it.start(f, std::vector<std::uint64_t>{arg});
  InterpRun r;
  for (;;) {
    const auto s = it.step(budget);
    r.cycles += s.cycles;
    if (s.finished) break;
  }
  r.result = it.result();
  r.instrs = it.instrs_executed();
  return r;
}

/// Interpreters on several host threads share one finalized module, and
/// their first calls into a shared callee happen together. Decoded code is
/// built once at Module::finalize, so the threads only ever read it: every
/// thread must reproduce the single-threaded result, instruction count and
/// cycle total exactly (and TSan must see no race).
TEST(Module, ConcurrentReadersOfFinalizedModule) {
  ST_SKIP_WITHOUT_MULTICORE();
  Module m;
  FunctionBuilder leaf(m, "leaf", {nullptr});
  leaf.ret(leaf.xor_(leaf.mul(leaf.param(0), leaf.const_i(2654435761)),
                     leaf.const_i(0x5a5a)));
  FunctionBuilder mid(m, "mid", {nullptr});
  mid.ret(mid.add(mid.call(leaf.function(), {mid.param(0)}),
                  mid.call(leaf.function(), {mid.add(mid.param(0),
                                                     mid.const_i(1))})));
  FunctionBuilder top(m, "top", {nullptr});
  const Reg i = top.var(top.const_i(0));
  const Reg acc = top.var(top.const_i(0));
  top.while_([&] { return top.cmp_slt(i, top.param(0)); },
             [&] {
               top.assign(acc, top.add(acc, top.call(mid.function(), {i})));
               top.assign(i, top.add(i, top.const_i(1)));
             });
  top.ret(acc);
  m.finalize();

  constexpr unsigned kThreads = 4;
  constexpr std::uint64_t kIters = 2000;
  const sim::Cycle budgets[kThreads] = {1, 3, 64, sim::Cycle{1} << 20};
  std::vector<InterpRun> got(kThreads);
  std::barrier start(kThreads);
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      start.arrive_and_wait();
      got[t] = run_interp(top.function(), kIters, budgets[t]);
    });
  }
  for (std::thread& th : pool) th.join();

  const InterpRun want = run_interp(top.function(), kIters, 1);
  EXPECT_GT(want.instrs, 6 * kIters);  // three calls and returns per iteration
  for (unsigned t = 0; t < kThreads; ++t)
    EXPECT_EQ(got[t], want) << "thread " << t << " budget " << budgets[t];
}

}  // namespace
}  // namespace st::ir
