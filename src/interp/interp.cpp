#include "interp/interp.hpp"

#include "common/check.hpp"

namespace st::interp {

using ir::DecodedInstr;
using ir::DecOp;
using ir::Reg;

void Interp::start(const ir::Function* f,
                   std::span<const std::uint64_t> args) {
  ST_CHECK(f != nullptr && f->entry() != nullptr);
  ST_CHECK_MSG(args.size() == f->num_params(), "argument count mismatch");
  reset();
  const ir::DecodedCode& dc = f->decoded();
  Frame& fr = push_frame();
  fr.code = dc.code.data();
  fr.ext = dc.ext.data();
  fr.args = dc.args.data();
  fr.ip = 0;
  fr.ret_to = ir::kNoReg;
  fr.regs.assign(f->num_regs(), 0);
  for (std::size_t i = 0; i < args.size(); ++i) fr.regs[i] = args[i];
}

void Interp::reset() {
  depth_ = 0;  // pooled frames keep their register storage
  result_ = 0;
  instr_count_ = 0;
  alp_count_ = 0;
}

Interp::Frame& Interp::push_frame() {
  if (depth_ == frames_.size()) frames_.emplace_back();
  return frames_[depth_++];
}

Interp::Step Interp::step(sim::Cycle budget) {
  Step out;
  if (depth_ == 0) {
    out.finished = true;
    return out;
  }
  Frame& fr = frames_[depth_ - 1];
  if (fr.code[fr.ip].is_boundary()) return step_boundary(fr.code[fr.ip]);

  // Fused pure-register run. Nothing below reads or writes anything another
  // core can observe, so retiring the whole run inside one scheduler event
  // is indistinguishable from single-stepping provided the run ends before
  // the caller's budget (= the next point at which another core may run).
  // Register operands were bounds-checked at decode time
  // (check_pure_operands), so the hot loop indexes the file unchecked.
  const DecodedInstr* const code = fr.code;
  std::uint64_t* const regs = fr.regs.data();
  std::uint32_t ip = fr.ip;
  std::uint64_t retired = 0;
  auto R = [&](Reg r) -> std::uint64_t { return regs[r]; };
  auto W = [&](Reg r, std::uint64_t v) { regs[r] = v; };
  auto S = [](std::uint64_t v) { return static_cast<std::int64_t>(v); };

  out.cycles = 0;
  for (;;) {
    const DecodedInstr& ins = code[ip];
    sim::Cycle cost = kAluCost;
    std::uint32_t next = ip + 1;
    switch (ins.op) {
      case DecOp::ConstI: W(ins.dst, static_cast<std::uint64_t>(ins.imm)); break;
      case DecOp::Mov: W(ins.dst, R(ins.a)); break;
      case DecOp::Add: W(ins.dst, R(ins.a) + R(ins.b)); break;
      case DecOp::Sub: W(ins.dst, R(ins.a) - R(ins.b)); break;
      case DecOp::Mul: W(ins.dst, R(ins.a) * R(ins.b)); break;
      case DecOp::SDiv:
        ST_CHECK_MSG(R(ins.b) != 0, "division by zero");
        W(ins.dst, static_cast<std::uint64_t>(S(R(ins.a)) / S(R(ins.b))));
        cost = kDivCost;
        break;
      case DecOp::SRem:
        ST_CHECK_MSG(R(ins.b) != 0, "remainder by zero");
        W(ins.dst, static_cast<std::uint64_t>(S(R(ins.a)) % S(R(ins.b))));
        cost = kDivCost;
        break;
      case DecOp::And: W(ins.dst, R(ins.a) & R(ins.b)); break;
      case DecOp::Or: W(ins.dst, R(ins.a) | R(ins.b)); break;
      case DecOp::Xor: W(ins.dst, R(ins.a) ^ R(ins.b)); break;
      case DecOp::Shl: W(ins.dst, R(ins.a) << (R(ins.b) & 63)); break;
      case DecOp::LShr: W(ins.dst, R(ins.a) >> (R(ins.b) & 63)); break;
      case DecOp::CmpEq: W(ins.dst, R(ins.a) == R(ins.b)); break;
      case DecOp::CmpNe: W(ins.dst, R(ins.a) != R(ins.b)); break;
      case DecOp::CmpSLt: W(ins.dst, S(R(ins.a)) < S(R(ins.b))); break;
      case DecOp::CmpSLe: W(ins.dst, S(R(ins.a)) <= S(R(ins.b))); break;
      case DecOp::CmpSGt: W(ins.dst, S(R(ins.a)) > S(R(ins.b))); break;
      case DecOp::CmpSGe: W(ins.dst, S(R(ins.a)) >= S(R(ins.b))); break;
      case DecOp::CmpULt: W(ins.dst, R(ins.a) < R(ins.b)); break;
      case DecOp::Gep:
        W(ins.dst, R(ins.a) + static_cast<std::uint64_t>(ins.imm));
        break;
      case DecOp::GepIndex:
        W(ins.dst, R(ins.a) + R(ins.b) * static_cast<std::uint64_t>(ins.imm));
        break;
      case DecOp::Br: next = ins.t1; break;
      case DecOp::CondBr: next = R(ins.a) != 0 ? ins.t1 : ins.t2; break;
      case DecOp::Nop: break;

// Imm superinstruction (see ir/decode.hpp): ConstI b, imm followed by a
// binary op reading b. The ConstI half always executes; the binary half
// only if it starts strictly inside the budget — otherwise ip stops on
// the absorbed binary op (still present at ip + 1) and the next step
// resumes there, exactly as single-stepping would.
#define ST_IMM_CASE(NAME, EXPR)                                      \
  case DecOp::NAME: {                                                \
    const std::uint64_t iv = static_cast<std::uint64_t>(ins.imm);    \
    W(ins.b, iv);                                                    \
    if (out.cycles + kAluCost >= budget) break; /* ConstI half only */ \
    const std::uint64_t av = R(ins.a);                               \
    W(ins.dst, (EXPR));                                              \
    cost = 2 * kAluCost;                                             \
    next = ip + 2;                                                   \
    ++retired;                                                       \
    break;                                                           \
  }
      ST_IMM_CASE(AddImm, av + iv)
      ST_IMM_CASE(SubImm, av - iv)
      ST_IMM_CASE(MulImm, av * iv)
      ST_IMM_CASE(AndImm, av & iv)
      ST_IMM_CASE(OrImm, av | iv)
      ST_IMM_CASE(XorImm, av ^ iv)
      ST_IMM_CASE(ShlImm, av << (iv & 63))
      ST_IMM_CASE(LShrImm, av >> (iv & 63))
      ST_IMM_CASE(CmpEqImm, static_cast<std::uint64_t>(av == iv))
      ST_IMM_CASE(CmpNeImm, static_cast<std::uint64_t>(av != iv))
      ST_IMM_CASE(CmpSLtImm, static_cast<std::uint64_t>(S(av) < S(iv)))
      ST_IMM_CASE(CmpSLeImm, static_cast<std::uint64_t>(S(av) <= S(iv)))
      ST_IMM_CASE(CmpSGtImm, static_cast<std::uint64_t>(S(av) > S(iv)))
      ST_IMM_CASE(CmpSGeImm, static_cast<std::uint64_t>(S(av) >= S(iv)))
      ST_IMM_CASE(CmpULtImm, static_cast<std::uint64_t>(av < iv))
#undef ST_IMM_CASE

      default:
        // Boundary instruction: ends the fused run; the next step executes
        // it as its own scheduler event.
        goto fused_done;
    }
    // Fusion epilogue (see ir/decode.hpp): this instruction may have
    // absorbed a result-copying Mov and/or the branch that follows it.
    // Each absorbed instruction executes only if it *starts* strictly
    // inside the budget; otherwise `next` already points at it in the
    // code array and the following step resumes there, exactly as
    // single-stepping would. Only fusion flags reach this point —
    // boundary instructions exited the switch above.
    if (ins.flags != 0) {
      if ((ins.flags & DecodedInstr::kFusedMov) != 0 &&
          out.cycles + cost < budget) {
        regs[static_cast<Reg>(ins.t2)] = regs[ins.dst];
        cost += kAluCost;
        ++retired;
        next = ip + 3;  // past ConstI + binary op + Mov
      }
      if ((ins.flags &
           (DecodedInstr::kFusedBr | DecodedInstr::kFusedCondBr)) != 0 &&
          out.cycles + cost < budget) {
        next = (ins.flags & DecodedInstr::kFusedCondBr)
                   ? (regs[ins.dst] != 0 ? ins.t1 : ins.t2)
                   : ins.t1;
        cost += kAluCost;
        ++retired;
      }
    }
    ip = next;
    ++retired;
    out.cycles += cost;
    // The next instruction would start at (current clock + out.cycles);
    // past the budget it belongs to a later scheduler event.
    if (out.cycles >= budget) break;
  }
fused_done:
  fr.ip = ip;
  instr_count_ += retired;
  return out;
}

Interp::Step Interp::step_boundary(const DecodedInstr& ins) {
  Step out;
  Frame& fr = frames_[depth_ - 1];
  const ir::DecodedExt& ext = fr.ext[ins.t1];
  auto R = [&](Reg r) -> std::uint64_t {
    ST_CHECK(r < fr.regs.size());
    return fr.regs[r];
  };
  auto W = [&](Reg r, std::uint64_t v) {
    ST_CHECK(r < fr.regs.size());
    fr.regs[r] = v;
  };

  out.cycles = kAluCost;

  switch (ins.op) {
    case DecOp::Load: {
      const auto m = env_.load(R(ins.a), ext.acc_size, ext.pc);
      out.cycles = m.latency;
      if (!m.ok) {
        out.aborted = true;
        return out;
      }
      W(ins.dst, m.value);
      break;
    }
    case DecOp::Store: {
      const auto m = env_.store(R(ins.a), R(ins.b), ext.acc_size, ext.pc);
      out.cycles = m.latency;
      if (!m.ok) {
        out.aborted = true;
        return out;
      }
      break;
    }
    case DecOp::NtLoad: {
      const auto m = env_.nt_load(R(ins.a), ext.acc_size);
      out.cycles = m.latency;
      if (!m.ok) {
        out.aborted = true;
        return out;
      }
      W(ins.dst, m.value);
      break;
    }
    case DecOp::NtStore: {
      const auto m = env_.nt_store(R(ins.a), R(ins.b), ext.acc_size);
      out.cycles = m.latency;
      if (!m.ok) {
        out.aborted = true;
        return out;
      }
      break;
    }
    case DecOp::Alloc: {
      sim::Addr a = 0;
      const auto m = env_.alloc(ext.type, a, ext.pc);
      out.cycles = m.latency;
      if (!m.ok) {
        out.aborted = true;
        return out;
      }
      W(ins.dst, a);
      break;
    }
    case DecOp::Free:
      env_.free_(R(ins.a));
      out.cycles = kFreeCost;
      break;

    case DecOp::Call: {
      const std::uint32_t nargs = ext.args_end - ext.args_begin;
      ST_CHECK_MSG(nargs <= ext.callee->num_regs(),
                   "call passes more arguments than the callee has registers");
      const ir::DecodedCode& dc = ext.callee->decoded();
      // Advance the caller past the call before pushing (the push may
      // reallocate `frames_`, invalidating `fr`).
      ++fr.ip;
      Frame& callee = push_frame();
      callee.code = dc.code.data();
      callee.ext = dc.ext.data();
      callee.args = dc.args.data();
      callee.ip = 0;
      callee.ret_to = ins.dst;
      callee.regs.assign(ext.callee->num_regs(), 0);
      const Frame& caller = frames_[depth_ - 2];  // fr may have moved
      for (std::uint32_t i = 0; i < nargs; ++i) {
        const Reg r = caller.args[ext.args_begin + i];
        ST_CHECK(r < caller.regs.size());
        callee.regs[i] = caller.regs[r];
      }
      out.cycles = kCallCost;
      ++instr_count_;
      return out;
    }
    case DecOp::Ret: {
      const std::uint64_t v = ins.a == ir::kNoReg ? 0 : R(ins.a);
      const Reg ret_to = fr.ret_to;
      --depth_;  // the popped frame stays pooled for the next call
      ++instr_count_;
      if (depth_ == 0) {
        result_ = v;
        out.finished = true;
      } else if (ret_to != ir::kNoReg) {
        Frame& caller = frames_[depth_ - 1];
        ST_CHECK(ret_to < caller.regs.size());
        caller.regs[ret_to] = v;
      }
      return out;
    }

    case DecOp::AlPoint: {
      const auto r = env_.alpoint(ext.alp_id, R(ins.a), ext.pc);
      out.cycles = r.latency;
      if (!r.ok) {
        out.aborted = true;
        return out;
      }
      if (r.retry) return out;  // spin: re-execute this ALPoint next step
      ++alp_count_;
      break;
    }

    default:
      ST_UNREACHABLE("pure opcode in the boundary dispatch");
  }

  ++instr_count_;
  ++fr.ip;
  return out;
}

}  // namespace st::interp
