#include "ir/function.hpp"

#include <unordered_set>

#include "common/check.hpp"

namespace st::ir {

const Instr& BasicBlock::terminator() const {
  ST_CHECK_MSG(has_terminator(), "block has no terminator");
  return instrs_.back();
}

bool BasicBlock::has_terminator() const {
  return !instrs_.empty() && instrs_.back().is_terminator();
}

std::vector<BasicBlock*> BasicBlock::successors() const {
  if (!has_terminator()) return {};
  const Instr& t = instrs_.back();
  switch (t.op) {
    case Op::Br: return {t.t1};
    case Op::CondBr: return {t.t1, t.t2};
    default: return {};
  }
}

Function::Function(std::string name, unsigned id,
                   std::vector<const StructType*> param_pointees)
    : name_(std::move(name)),
      id_(id),
      param_pointees_(std::move(param_pointees)),
      next_reg_(static_cast<unsigned>(param_pointees_.size())) {}

BasicBlock* Function::add_block(std::string name) {
  ST_CHECK_MSG(!decoded_.has_value(), "add_block on a decoded function");
  blocks_.push_back(std::make_unique<BasicBlock>(
      this, std::move(name), static_cast<unsigned>(blocks_.size())));
  rpo_valid_ = false;
  return blocks_.back().get();
}

void Function::decode() {
  ST_CHECK_MSG(!decoded_.has_value(), "function already decoded");
  decoded_.emplace(decode_function(*this));
}

Reg Function::fresh_reg() {
  ST_CHECK_MSG(next_reg_ < kNoReg - 1, "register space exhausted");
  return static_cast<Reg>(next_reg_++);
}

Reg Function::param_reg(unsigned i) const {
  ST_CHECK(i < param_pointees_.size());
  return static_cast<Reg>(i);
}

const std::vector<BasicBlock*>& Function::rpo() const {
  if (rpo_valid_) return rpo_cache_;
  rpo_cache_.clear();
  if (blocks_.empty()) {
    rpo_valid_ = true;
    return rpo_cache_;
  }
  // Iterative post-order DFS, then reverse.
  std::unordered_set<const BasicBlock*> visited;
  std::vector<std::pair<BasicBlock*, unsigned>> stack;
  BasicBlock* e = blocks_.front().get();
  stack.emplace_back(e, 0);
  visited.insert(e);
  std::vector<BasicBlock*> post;
  while (!stack.empty()) {
    auto& [bb, idx] = stack.back();
    auto succs = bb->successors();
    if (idx < succs.size()) {
      BasicBlock* s = succs[idx++];
      if (visited.insert(s).second) stack.emplace_back(s, 0);
    } else {
      post.push_back(bb);
      stack.pop_back();
    }
  }
  rpo_cache_.assign(post.rbegin(), post.rend());
  rpo_valid_ = true;
  return rpo_cache_;
}

unsigned Function::instr_count() const {
  unsigned n = 0;
  for (const auto& b : blocks_) n += static_cast<unsigned>(b->instrs().size());
  return n;
}

}  // namespace st::ir
