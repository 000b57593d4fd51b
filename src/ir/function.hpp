// TxIR basic blocks and functions.
#pragma once

#include <deque>
#include <list>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "ir/decode.hpp"
#include "ir/instr.hpp"

namespace st::ir {

class Function;

class BasicBlock {
 public:
  BasicBlock(Function* parent, std::string name, unsigned id)
      : parent_(parent), name_(std::move(name)), id_(id) {}

  Function* parent() const { return parent_; }
  const std::string& name() const { return name_; }
  unsigned id() const { return id_; }

  /// Instructions are stored in a list so that instrumentation passes can
  /// insert in the middle without invalidating Instr* held by analyses.
  std::list<Instr>& instrs() { return instrs_; }
  const std::list<Instr>& instrs() const { return instrs_; }

  const Instr& terminator() const;
  bool has_terminator() const;

  /// Successor blocks from the terminator (0, 1 or 2).
  std::vector<BasicBlock*> successors() const;

 private:
  Function* parent_;
  std::string name_;
  unsigned id_;
  std::list<Instr> instrs_;
};

class Function {
 public:
  /// `param_pointees[i]` is non-null when parameter i is a pointer to that
  /// struct type (this is the signature information DSA consumes).
  Function(std::string name, unsigned id,
           std::vector<const StructType*> param_pointees);

  const std::string& name() const { return name_; }
  unsigned id() const { return id_; }
  unsigned num_params() const {
    return static_cast<unsigned>(param_pointees_.size());
  }
  const StructType* param_pointee(unsigned i) const {
    return param_pointees_[i];
  }

  /// Appends an empty block. Rejected once the function is decoded: the
  /// decoded code is immutable, so the IR it was built from must be too.
  BasicBlock* add_block(std::string name);
  BasicBlock* entry() { return blocks_.empty() ? nullptr : blocks_.front().get(); }
  const BasicBlock* entry() const {
    return blocks_.empty() ? nullptr : blocks_.front().get();
  }

  std::deque<std::unique_ptr<BasicBlock>>& blocks() { return blocks_; }
  const std::deque<std::unique_ptr<BasicBlock>>& blocks() const {
    return blocks_;
  }

  Reg fresh_reg();
  unsigned num_regs() const { return next_reg_; }
  /// Parameter i occupies register i.
  Reg param_reg(unsigned i) const;

  /// Blocks in reverse post-order from the entry (unreachable blocks are
  /// excluded). Cached lazily and invalidated by add_block. Only compile
  /// passes call it (dsa/local.cpp, ir/domtree.cpp), single-threaded and
  /// before Module::finalize, so the cache needs no synchronization.
  const std::vector<BasicBlock*>& rpo() const;

  unsigned instr_count() const;

  /// Builds the pre-decoded flat code (see ir/decode.hpp). Module::finalize
  /// calls it once per function, after instrumentation and PC assignment;
  /// a second call is rejected.
  void decode();
  /// The code decode() built. Immutable and never rebuilt, so any number of
  /// interpreters on any number of host threads may read it concurrently.
  /// Fails its check when the module has not been finalized.
  const DecodedCode& decoded() const {
    ST_CHECK_MSG(decoded_.has_value(),
                 "function not decoded: run Module::finalize() first");
    return *decoded_;
  }

 private:
  std::string name_;
  unsigned id_;
  std::vector<const StructType*> param_pointees_;
  std::deque<std::unique_ptr<BasicBlock>> blocks_;
  unsigned next_reg_;
  mutable std::vector<BasicBlock*> rpo_cache_;
  mutable bool rpo_valid_ = false;
  std::optional<DecodedCode> decoded_;
};

}  // namespace st::ir
