// Tests for the per-line privacy (ownership) tracker (sim/privacy.hpp): the
// privacy lattice (private -> shared, never back), arena seeding,
// publication-driven escapes with transitive reachability, the
// host-dispatch channel, and the memory system's single coherence path for
// private lines.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/heap.hpp"
#include "sim/memory_system.hpp"
#include "sim/privacy.hpp"
#include "workloads/harness.hpp"

namespace st {
namespace {

using sim::Addr;
using sim::Heap;
using sim::PrivacyMap;

/// Records escapes instead of materializing directory state.
class RecordingSink final : public sim::LineEscapeSink {
 public:
  struct Rec {
    sim::CoreId publisher;
    Addr line;
    sim::CoreId owner;
    std::uint32_t pc;
  };
  std::vector<Rec> recs;
  void on_line_escape(sim::CoreId publisher, Addr line, sim::CoreId owner,
                      std::uint32_t pc) override {
    recs.push_back({publisher, line, owner, pc});
  }
};

struct PrivFixture {
  Heap heap;
  PrivacyMap priv;
  RecordingSink sink;
  PrivFixture(unsigned arenas = 3, std::size_t arena_bytes = 1u << 20)
      : heap(arenas, arena_bytes), priv(heap) {
    priv.set_sink(&sink);
    heap.set_privacy(&priv);
  }
};

TEST(PrivacyMap, ArenaSeeding) {
  PrivFixture fx;
  const Addr a0 = fx.heap.alloc(0, 64);
  const Addr a1 = fx.heap.alloc(1, 64);
  EXPECT_EQ(fx.priv.private_owner(a0), 0);
  EXPECT_EQ(fx.priv.private_owner(a1), 1);
  EXPECT_TRUE(fx.priv.private_to(0, a0));
  EXPECT_FALSE(fx.priv.private_to(1, a0));
  EXPECT_TRUE(fx.priv.foreign_private(1, a0));
  EXPECT_FALSE(fx.priv.foreign_private(0, a0));
}

TEST(PrivacyMap, SetupArenaIsAlwaysShared) {
  PrivFixture fx;
  const Addr s = fx.heap.alloc(fx.heap.setup_arena(), 64);
  EXPECT_EQ(fx.priv.private_owner(s), -1);
  // Publishing a setup-arena pointer is a no-op (already shared).
  fx.priv.publish_value(0, s, 0);
  EXPECT_TRUE(fx.sink.recs.empty());
  EXPECT_EQ(fx.priv.escaped_lines(), 0u);
}

TEST(PrivacyMap, OutOfHeapValuesAreShared) {
  PrivFixture fx;
  EXPECT_EQ(fx.priv.private_owner(0), -1);
  EXPECT_EQ(fx.priv.private_owner(42), -1);  // below Heap::kBase
  fx.priv.publish_value(0, 42, 0);
  EXPECT_TRUE(fx.sink.recs.empty());
}

TEST(PrivacyMap, PublicationEscapesWholeBlockIrrevocably) {
  PrivFixture fx;
  // A 4-line block: publishing an *interior* pointer escapes all lines.
  const Addr b = fx.heap.alloc_line_aligned(0, 4 * sim::kLineBytes);
  EXPECT_EQ(fx.priv.private_owner(b), 0);
  fx.priv.publish_value(1, b + sim::kLineBytes + 8, 77);
  EXPECT_EQ(fx.sink.recs.size(), 4u);
  for (unsigned i = 0; i < 4; ++i) {
    const Addr line = sim::line_addr(b) + i * sim::kLineBytes;
    EXPECT_EQ(fx.priv.private_owner(line), -1);
    EXPECT_EQ(fx.sink.recs[i].line, line);
    EXPECT_EQ(fx.sink.recs[i].owner, 0u);
    EXPECT_EQ(fx.sink.recs[i].publisher, 1u);
    EXPECT_EQ(fx.sink.recs[i].pc, 77u);
  }
  // Irrevocable: a second publication of the same block is a no-op.
  fx.priv.publish_value(0, b, 0);
  EXPECT_EQ(fx.sink.recs.size(), 4u);
  EXPECT_EQ(fx.priv.escaped_lines(), 4u);
}

TEST(PrivacyMap, EscapeCascadesThroughStoredPointers) {
  PrivFixture fx;
  // a -> b -> c pointer chain, all private to core 0; publishing a's
  // address must escape all three blocks (b and c are reachable through
  // committed memory once a is shared).
  const Addr c = fx.heap.alloc_line_aligned(0, 64);
  const Addr b = fx.heap.alloc_line_aligned(0, 64);
  const Addr a = fx.heap.alloc_line_aligned(0, 64);
  fx.heap.store(b, c, 8);
  fx.heap.store(a, b, 8);
  fx.priv.publish_value(1, a, 0);
  EXPECT_EQ(fx.priv.private_owner(a), -1);
  EXPECT_EQ(fx.priv.private_owner(b), -1);
  EXPECT_EQ(fx.priv.private_owner(c), -1);
  EXPECT_EQ(fx.sink.recs.size(), 3u);
}

TEST(PrivacyMap, CascadeScansOnlyLiveSubBlocks) {
  PrivFixture fx;
  // Two 8-byte blocks share a line. Plant a pointer in the second, free it
  // (the heap does not zero on free), then publish the first: the cascade
  // scan must skip the dead neighbor's stale bytes — only live sub-blocks
  // hold committed, deterministic data.
  const Addr target = fx.heap.alloc_line_aligned(0, 64);
  const Addr a = fx.heap.alloc(0, 8);
  const Addr dead = fx.heap.alloc(0, 8);
  ASSERT_EQ(sim::line_addr(a), sim::line_addr(dead));  // same line
  fx.heap.store(dead, target, 8);
  fx.heap.dealloc(dead);
  fx.priv.publish_value(1, a, 0);
  EXPECT_EQ(fx.priv.private_owner(a), -1);
  EXPECT_EQ(fx.priv.private_owner(target), 0) << "stale pointer in dead "
                                                 "sub-block caused an escape";
}

TEST(PrivacyMap, ReallocationPreservesEscapeBit) {
  PrivFixture fx;
  const Addr a = fx.heap.alloc_line_aligned(0, 64);
  fx.priv.publish_value(1, a, 0);
  EXPECT_EQ(fx.priv.private_owner(a), -1);
  fx.heap.dealloc(a);
  const Addr a2 = fx.heap.alloc_line_aligned(0, 64);
  // Same size class: the free list returns the same slot, and the line
  // stays shared — privacy is a property of the line, not the block.
  EXPECT_EQ(a2, a);
  EXPECT_EQ(fx.priv.private_owner(a2), -1);
}

TEST(PrivacyMap, OversizedBlocksAreBornShared) {
  PrivFixture fx(3, 64u << 20);
  const std::size_t huge =
      (PrivacyMap::kMaxBlockLines + 1) * sim::kLineBytes;
  const Addr h = fx.heap.alloc(0, huge);
  EXPECT_EQ(fx.priv.private_owner(h), -1);
  EXPECT_EQ(fx.priv.private_owner(h + huge - 8), -1);
  EXPECT_GT(fx.sink.recs.size(), PrivacyMap::kMaxBlockLines);
}

TEST(PrivacyMap, IntegerFalsePositiveOnlyOverEscapes) {
  PrivFixture fx;
  const Addr victim = fx.heap.alloc_line_aligned(0, 64);
  // An integer that happens to equal a private address escapes the block
  // (conservative direction) but never touches unrelated blocks.
  const Addr other = fx.heap.alloc_line_aligned(0, 64);
  fx.priv.publish_value(1, victim, 0);
  EXPECT_EQ(fx.priv.private_owner(victim), -1);
  EXPECT_EQ(fx.priv.private_owner(other), 0);
}

TEST(PrivacyMap, SnapshotCounters) {
  PrivFixture fx;
  const Addr a = fx.heap.alloc_line_aligned(1, 2 * sim::kLineBytes);
  fx.priv.publish_value(0, a, 0);
  fx.priv.publish_value(0, 12345, 0);
  const sim::PrivacyStats s = fx.priv.snapshot(true);
  EXPECT_TRUE(s.enabled);
  EXPECT_EQ(s.escaped_lines, 2u);
  EXPECT_EQ(s.publish_checks, 2u);
  ASSERT_EQ(s.arena_escapes.size(), 2u);  // 3 arenas - 1 setup
  EXPECT_EQ(s.arena_escapes[0], 0u);
  EXPECT_EQ(s.arena_escapes[1], 2u);
}

// ---- the memory system: one coherence path, private or shared ----

TEST(PrivateLineCoherence, StoreMissRegistersInDirectory) {
  // A store miss to a line still private to its core takes the same
  // directory path as any other line: the core becomes sharer and owner.
  PrivFixture fx;
  sim::MemConfig cfg;
  cfg.cores = 2;
  sim::MachineStats stats(2);
  sim::MemorySystem mem(cfg, stats);
  mem.set_privacy(&fx.priv);
  fx.priv.set_sink(&mem);
  const Addr a = fx.heap.alloc_line_aligned(1, 64);
  ASSERT_TRUE(fx.priv.private_to(1, a));
  mem.access(1, a, 8, sim::AccessKind::Store, false, 0);
  EXPECT_EQ(stats.core(1).priv_misses, 1u);
  EXPECT_TRUE(fx.priv.private_to(1, a));
  EXPECT_TRUE(mem.dir_sharers(a).test(1));
  EXPECT_EQ(mem.dir_owner(a), 1);
  mem.check_invariants();
}

// ---- end to end ----

workloads::RunResult run_cell(const std::string& wl, std::uint64_t seed) {
  workloads::RunOptions o;
  o.scheme = runtime::Scheme::kStaggeredSW;
  o.threads = 4;
  o.seed = seed;
  o.ops_scale = 0.05;
  o.checked = true;
  o.trace_path = std::string();
  return workloads::run_workload(wl, o);
}

TEST(PrivacyEndToEnd, LabyrinthKeepsPrivateGridsPrivate) {
  // labyrinth's per-thread grid copies are the flagship private workload:
  // the map must see private hits, and the run must stay consistent with
  // private lines on the ordinary coherence path.
  const workloads::RunResult r = run_cell("labyrinth", 3);
  EXPECT_TRUE(r.privacy.enabled);
  EXPECT_GT(r.totals.priv_hits, 0u);
  EXPECT_GT(r.privacy.publish_checks, 0u);
  EXPECT_TRUE(r.invariant_failure.empty()) << r.invariant_failure;
}

}  // namespace
}  // namespace st
