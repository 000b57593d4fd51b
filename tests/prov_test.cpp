// Conflict provenance (obs/prov.hpp): blame-ring semantics, counterfactual
// lock classification, allocation-site tracking, the binary format, the
// conflict-graph builder, strict env-knob validation, and — the
// load-bearing invariant — provenance never changing a simulated result.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/prov.hpp"
#include "sim/heap.hpp"
#include "workloads/harness.hpp"
#include "workloads/runner.hpp"

namespace st::obs {
namespace {

std::string tmp_path(const char* name) {
  const char* dir = std::getenv("TMPDIR");
  return std::string(dir != nullptr && *dir != '\0' ? dir : "/tmp") + "/" +
         name;
}

// ------------------------------------------------------------- knobs ----

TEST(ProvEnvKnobs, DefaultsWhenUnset) {
  unsetenv("STAGTM_PROF");
  unsetenv("STAGTM_PROF_CAP");
  unsetenv("STAGTM_PROF_FOOTPRINT");
  const ProvConfig cfg = ProvConfig::from_env();
  EXPECT_FALSE(cfg.enabled());
  EXPECT_EQ(cfg.cap_per_core, 1u << 16);
  EXPECT_EQ(cfg.footprint_lines, 64u);
}

TEST(ProvEnvKnobs, ParsesValidValues) {
  ASSERT_EQ(setenv("STAGTM_PROF", "/tmp/x.prf", 1), 0);
  ASSERT_EQ(setenv("STAGTM_PROF_CAP", "128", 1), 0);
  ASSERT_EQ(setenv("STAGTM_PROF_FOOTPRINT", "16", 1), 0);
  const ProvConfig cfg = ProvConfig::from_env();
  EXPECT_TRUE(cfg.enabled());
  EXPECT_EQ(cfg.path, "/tmp/x.prf");
  EXPECT_EQ(cfg.cap_per_core, 128u);
  EXPECT_EQ(cfg.footprint_lines, 16u);
  unsetenv("STAGTM_PROF");
  unsetenv("STAGTM_PROF_CAP");
  unsetenv("STAGTM_PROF_FOOTPRINT");
}

TEST(ProvEnvKnobs, MalformedCapExitsWithCode2) {
  ASSERT_EQ(setenv("STAGTM_PROF_CAP", "banana", 1), 0);
  EXPECT_EXIT(ProvConfig::from_env(), ::testing::ExitedWithCode(2),
              "STAGTM_PROF_CAP");
  ASSERT_EQ(setenv("STAGTM_PROF_CAP", "0", 1), 0);  // below minimum
  EXPECT_EXIT(ProvConfig::from_env(), ::testing::ExitedWithCode(2),
              "STAGTM_PROF_CAP");
  unsetenv("STAGTM_PROF_CAP");
}

TEST(ProvEnvKnobs, MalformedFootprintExitsWithCode2) {
  ASSERT_EQ(setenv("STAGTM_PROF_FOOTPRINT", "-3", 1), 0);
  EXPECT_EXIT(ProvConfig::from_env(), ::testing::ExitedWithCode(2),
              "STAGTM_PROF_FOOTPRINT");
  ASSERT_EQ(setenv("STAGTM_PROF_FOOTPRINT", "5000", 1), 0);  // above maximum
  EXPECT_EXIT(ProvConfig::from_env(), ::testing::ExitedWithCode(2),
              "STAGTM_PROF_FOOTPRINT");
  unsetenv("STAGTM_PROF_FOOTPRINT");
}

// -------------------------------------------------------- blame rings ----

/// Drives one full conflict-abort on core `victim`, blamed on `aggressor`.
void run_conflict_abort(ProvSink& s, sim::CoreId victim, sim::CoreId aggressor,
                        sim::Addr line, std::uint32_t agg_pc,
                        sim::Cycle at = 100) {
  s.on_conflict_stamp(victim, line, aggressor, agg_pc);
  s.capture_footprint(victim, {line});
  s.on_abort_finalize(victim, /*cause=*/1, line, true, 0xBEE, 0x10, 0, -1, at);
  s.on_attempt_abort(victim, /*attempts=*/1, /*wasted=*/50, false, at);
}

TEST(ProvSinkRing, WrapKeepsNewestAndCountsDrops) {
  ProvSink s(2, /*cap=*/4, /*fp=*/8);
  s.on_attempt_begin(1, 7, 1);
  for (int i = 0; i < 11; ++i) {
    s.on_attempt_begin(0, 3, 1);
    run_conflict_abort(s, 0, 1, 0x1000 + 64u * i, 0x42,
                       static_cast<sim::Cycle>(100 + i));
  }
  EXPECT_EQ(s.blame_emitted(0), 11u);
  EXPECT_EQ(s.blame_dropped(0), 7u);
  EXPECT_EQ(s.total_blame(), 11u);
  EXPECT_EQ(s.total_dropped(), 7u);
  const auto blames = s.blames(0);
  ASSERT_EQ(blames.size(), 4u);  // newest four survive, oldest first
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(blames[i].at, static_cast<sim::Cycle>(107 + i));
    EXPECT_EQ(blames[i].line, 0x1000u + 64u * (7 + i));
  }
  EXPECT_EQ(s.blame_emitted(1), 0u);  // the aggressor never aborted
}

TEST(ProvSinkBlame, ConflictAbortFullyAttributed) {
  ProvSink s(2, 16, 8);
  s.on_attempt_begin(1, /*ab=*/7, 1);   // aggressor context
  s.on_attempt_begin(0, /*ab=*/3, 2);   // victim, second attempt
  s.on_conflict_stamp(0, 0x2000, 1, 0x42);
  s.capture_footprint(0, {0x2000, 0x2040});
  s.on_abort_finalize(0, /*cause=*/1, 0x2000, true, 0xABC, 0x10,
                      /*alloc_site=*/0x777, /*priv_owner=*/2, 200);
  s.on_attempt_abort(0, /*attempts=*/2, /*wasted=*/150, false, 200);
  const auto blames = s.blames(0);
  ASSERT_EQ(blames.size(), 1u);
  const BlameRecord& r = blames[0];
  EXPECT_EQ(r.at, 200u);
  EXPECT_EQ(r.line, 0x2000u);
  EXPECT_EQ(r.wasted_cycles, 150u);
  EXPECT_EQ(r.victim_pc, 0x10u);
  EXPECT_EQ(r.aggressor_pc, 0x42u);
  EXPECT_EQ(r.alloc_site, 0x777u);
  EXPECT_EQ(r.victim_ab, 3u);
  EXPECT_EQ(r.aggressor_ab, 7u);
  EXPECT_EQ(r.pc_tag, 0xABCu);
  EXPECT_EQ(r.cause, 1u);
  EXPECT_EQ(r.victim_core, 0u);
  EXPECT_EQ(r.aggressor_core, 1u);
  EXPECT_EQ(r.retry, 2u);
  EXPECT_EQ(r.priv_owner, 2u);
  EXPECT_TRUE(r.flags & kBlamePcTagValid);
  EXPECT_TRUE(r.flags & kBlameHasAggressor);
  EXPECT_TRUE(r.flags & kBlameLinePrivate);
  EXPECT_FALSE(r.flags & kBlameWillGlock);
  EXPECT_FALSE(r.flags & kBlameAggressorIrrev);
}

TEST(ProvSinkBlame, AggressorContextSampledAtStampTime) {
  ProvSink s(2, 16, 8);
  s.on_attempt_begin(1, 7, 1);
  s.on_attempt_begin(0, 3, 1);
  s.on_conflict_stamp(0, 0x2000, 1, 0x42);
  // The aggressor commits and moves on to a different block before the
  // victim's abort finalizes; the blame must keep the stamp-time identity.
  s.on_attempt_commit(1, 150);
  s.on_attempt_begin(1, 9, 1);
  s.capture_footprint(0, {0x2000});
  s.on_abort_finalize(0, 1, 0x2000, false, 0, 0x10, 0, -1, 200);
  s.on_attempt_abort(0, 1, 80, false, 200);
  const auto blames = s.blames(0);
  ASSERT_EQ(blames.size(), 1u);
  EXPECT_EQ(blames[0].aggressor_ab, 7u);  // not 9
}

TEST(ProvSinkBlame, CapacityAbortIsSelfConflict) {
  ProvSink s(1, 16, 8);
  s.on_attempt_begin(0, 5, 1);
  s.on_capacity_stamp(0, 0x3000);
  s.capture_footprint(0, {0x3000, 0x3040});
  s.on_abort_finalize(0, /*cause=capacity*/ 2, 0x3000, false, 0, 0x20, 0, -1,
                      300);
  s.on_attempt_abort(0, 1, 60, false, 300);
  const auto blames = s.blames(0);
  ASSERT_EQ(blames.size(), 1u);
  EXPECT_EQ(blames[0].cause, 2u);
  EXPECT_EQ(blames[0].victim_core, blames[0].aggressor_core);
  EXPECT_EQ(blames[0].aggressor_pc, 0u);
  EXPECT_EQ(blames[0].aggressor_ab, 5u);
  EXPECT_TRUE(blames[0].flags & kBlameHasAggressor);
}

TEST(ProvSinkBlame, CapacityStampOverridesEarlierConflictStamp) {
  ProvSink s(2, 16, 8);
  s.on_attempt_begin(1, 7, 1);
  s.on_attempt_begin(0, 3, 1);
  s.on_conflict_stamp(0, 0x2000, 1, 0x42);
  s.on_capacity_stamp(0, 0x3000);  // the overflow is what the attempt dies of
  s.capture_footprint(0, {0x3000});
  s.on_abort_finalize(0, 2, 0x3000, false, 0, 0x20, 0, -1, 300);
  s.on_attempt_abort(0, 1, 60, false, 300);
  const auto blames = s.blames(0);
  ASSERT_EQ(blames.size(), 1u);
  EXPECT_EQ(blames[0].aggressor_core, 0u);
  EXPECT_EQ(blames[0].aggressor_pc, 0u);
}

TEST(ProvSinkBlame, IrrevocableAggressorFlagged) {
  ProvSink s(2, 16, 8);
  s.on_irrev_begin(1, 7);
  s.on_attempt_begin(0, 3, 1);
  s.on_conflict_stamp(0, 0x2000, 1, 0x42);
  s.capture_footprint(0, {0x2000});
  s.on_abort_finalize(0, 1, 0x2000, false, 0, 0x10, 0, -1, 200);
  s.on_attempt_abort(0, 10, 80, /*will_glock=*/true, 200);
  const auto blames = s.blames(0);
  ASSERT_EQ(blames.size(), 1u);
  EXPECT_TRUE(blames[0].flags & kBlameAggressorIrrev);
  EXPECT_TRUE(blames[0].flags & kBlameWillGlock);
  EXPECT_EQ(blames[0].retry, 10u);
}

TEST(ProvSinkBlame, CommitOrUnfinalizedAbortEmitsNothing) {
  ProvSink s(2, 16, 8);
  s.on_attempt_begin(0, 3, 1);
  s.on_conflict_stamp(0, 0x2000, 1, 0x42);
  s.capture_footprint(0, {0x2000});
  s.on_attempt_commit(0, 100);  // stamped but survived: no blame
  EXPECT_EQ(s.blame_emitted(0), 0u);
  // An abort with no finalize (nothing reported by the HTM) emits nothing
  // either, and the stale stamp must have been cleared by the commit.
  s.on_attempt_begin(0, 3, 2);
  s.on_attempt_abort(0, 2, 10, false, 150);
  EXPECT_EQ(s.blame_emitted(0), 0u);
}

TEST(ProvSinkBlame, FootprintKeepsFirstCaptureAndFlagsTruncation) {
  ProvSink s(1, 16, /*fp=*/2);
  s.on_attempt_begin(0, 1, 1);
  s.capture_footprint(0, {0x1000, 0x1040, 0x1080});  // 3 lines, cap 2
  EXPECT_TRUE(s.footprint_captured(0));
  s.capture_footprint(0, {0x9000});  // later capture must not overwrite
  s.on_abort_finalize(0, 2, 0x1000, false, 0, 0, 0, -1, 100);
  s.on_attempt_abort(0, 1, 10, false, 100);
  const auto blames = s.blames(0);
  ASSERT_EQ(blames.size(), 1u);
  EXPECT_TRUE(blames[0].flags & kBlameFpTruncated);
  // The next attempt starts fresh.
  s.on_attempt_begin(0, 1, 2);
  EXPECT_FALSE(s.footprint_captured(0));
}

// ------------------------------------------------- lock counterfactuals ----

TEST(ProvSinkEpisode, OverlapClassifiesConflictAvoided) {
  ProvSink s(2, 16, 8);
  s.on_attempt_begin(1, 7, 1);  // holder
  s.on_attempt_begin(0, 3, 1);  // waiter
  s.on_lock_wait(0, /*lock=*/5, /*data_line=*/0x2040, /*holder=*/1, 100);
  s.on_lock_acquired(0, 160);
  // Holder commits first, publishing its footprint to the open episode.
  s.capture_footprint(1, {0x2040, 0x9000});
  s.on_attempt_commit(1, 170);
  s.capture_footprint(0, {0x1000, 0x2040});
  s.on_attempt_commit(0, 200);
  const auto eps = s.episodes(0);
  ASSERT_EQ(eps.size(), 1u);
  const LockEpisodeRecord& e = eps[0];
  EXPECT_EQ(e.lock_idx, 5u);
  EXPECT_EQ(e.data_line, 0x2040u);
  EXPECT_EQ(e.waiter_core, 0u);
  EXPECT_EQ(e.holder_core, 1u);
  EXPECT_EQ(e.waiter_ab, 3u);
  EXPECT_EQ(e.holder_ab, 7u);
  EXPECT_EQ(e.wait_start, 100u);
  EXPECT_EQ(e.wait_cycles, 60u);  // closed by the acquire at 160
  EXPECT_EQ(e.outcome, static_cast<std::uint8_t>(LockOutcome::kAcquired));
  EXPECT_EQ(e.classification,
            static_cast<std::uint8_t>(LockClass::kConflictAvoided));
  EXPECT_EQ(e.overlap_lines, 1u);
  EXPECT_EQ(e.overlap_line, 0x2040u);
  EXPECT_TRUE(e.flags & kEpisodeHolderFpValid);
  EXPECT_FALSE(e.flags & kEpisodeFpTruncated);
}

TEST(ProvSinkEpisode, DisjointClassifiesFalseSerialization) {
  ProvSink s(2, 16, 8);
  s.on_attempt_begin(1, 7, 1);
  s.on_attempt_begin(0, 3, 1);
  s.on_lock_wait(0, 5, 0x2040, 1, 100);
  s.on_lock_timeout(0, 2100);  // gave up, ran unprotected
  s.capture_footprint(1, {0x9000, 0x9040});
  s.on_attempt_commit(1, 2200);
  s.capture_footprint(0, {0x1000, 0x2040});
  s.on_attempt_commit(0, 2300);
  const auto eps = s.episodes(0);
  ASSERT_EQ(eps.size(), 1u);
  EXPECT_EQ(eps[0].outcome, static_cast<std::uint8_t>(LockOutcome::kTimeout));
  EXPECT_EQ(eps[0].wait_cycles, 2000u);
  EXPECT_EQ(eps[0].classification,
            static_cast<std::uint8_t>(LockClass::kFalseSerialization));
  EXPECT_EQ(eps[0].overlap_lines, 0u);
  EXPECT_EQ(eps[0].overlap_line, 0u);
}

TEST(ProvSinkEpisode, MissingHolderFootprintIsIndeterminate) {
  ProvSink s(2, 16, 8);
  s.on_irrev_begin(1, 7);  // irrevocable holders have no speculative lines
  s.on_attempt_begin(0, 3, 1);
  s.on_lock_wait(0, 5, 0x2040, 1, 100);
  s.on_lock_acquired(0, 150);
  s.on_attempt_commit(1, 160);  // no footprint was ever captured
  s.capture_footprint(0, {0x2040});
  s.on_attempt_commit(0, 200);
  const auto eps = s.episodes(0);
  ASSERT_EQ(eps.size(), 1u);
  EXPECT_EQ(eps[0].classification,
            static_cast<std::uint8_t>(LockClass::kIndeterminate));
  EXPECT_TRUE(eps[0].flags & kEpisodeHolderIrrev);
  // Missing holder footprint, not a clipped one: the valid flag is off but
  // the truncation flag (which means "a footprint was clipped") stays clear.
  EXPECT_FALSE(eps[0].flags & kEpisodeHolderFpValid);
  EXPECT_FALSE(eps[0].flags & kEpisodeFpTruncated);
}

TEST(ProvSinkEpisode, TruncatedWaiterFootprintIsIndeterminate) {
  ProvSink s(2, 16, /*fp=*/1);
  s.on_attempt_begin(1, 7, 1);
  s.on_attempt_begin(0, 3, 1);
  s.on_lock_wait(0, 5, 0x2040, 1, 100);
  s.on_lock_acquired(0, 150);
  s.capture_footprint(1, {0x2040});
  s.on_attempt_commit(1, 160);
  s.capture_footprint(0, {0x1000, 0x2040});  // 2 lines, cap 1: clipped
  s.on_attempt_commit(0, 200);
  const auto eps = s.episodes(0);
  ASSERT_EQ(eps.size(), 1u);
  // The clipped footprint could hide the overlapping line, so no "false
  // serialization" claim is safe.
  EXPECT_EQ(eps[0].classification,
            static_cast<std::uint8_t>(LockClass::kIndeterminate));
  EXPECT_TRUE(eps[0].flags & kEpisodeFpTruncated);
}

TEST(ProvSinkEpisode, AbortDuringWaitRecordsOutcome) {
  ProvSink s(2, 16, 8);
  s.on_attempt_begin(1, 7, 1);
  s.on_attempt_begin(0, 3, 1);
  s.on_lock_wait(0, 5, 0x2040, 1, 100);
  s.on_lock_wait_aborted(0, 140);  // remote conflict killed the spinner
  s.capture_footprint(1, {0x2040});
  s.on_attempt_commit(1, 150);
  s.capture_footprint(0, {0x2040});
  s.on_abort_finalize(0, 1, 0x2040, false, 0, 0x10, 0, -1, 160);
  s.on_attempt_abort(0, 1, 60, false, 160);
  const auto eps = s.episodes(0);
  ASSERT_EQ(eps.size(), 1u);
  EXPECT_EQ(eps[0].outcome,
            static_cast<std::uint8_t>(LockOutcome::kAbortedWaiting));
  EXPECT_EQ(eps[0].wait_cycles, 40u);
  EXPECT_EQ(eps[0].classification,
            static_cast<std::uint8_t>(LockClass::kConflictAvoided));
  // The abort that ended the wait is also blamed, independently.
  EXPECT_EQ(s.blame_emitted(0), 1u);
}

TEST(ProvSinkEpisode, HolderGenerationMismatchStaysIndeterminate) {
  ProvSink s(2, 16, 8);
  s.on_attempt_begin(1, 7, 1);
  s.on_attempt_begin(0, 3, 1);
  s.on_lock_wait(0, 5, 0x2040, 1, 100);  // samples holder generation G
  s.on_attempt_commit(1, 120);           // G ends without a footprint
  s.on_attempt_begin(1, 7, 2);           // G+1 must not leak into the episode
  s.capture_footprint(1, {0x2040});
  s.on_attempt_commit(1, 180);
  s.on_lock_acquired(0, 190);
  s.capture_footprint(0, {0x2040});
  s.on_attempt_commit(0, 200);
  const auto eps = s.episodes(0);
  ASSERT_EQ(eps.size(), 1u);
  EXPECT_EQ(eps[0].classification,
            static_cast<std::uint8_t>(LockClass::kIndeterminate));
  EXPECT_FALSE(eps[0].flags & kEpisodeHolderFpValid);
}

TEST(ProvSinkEpisode, UnknownHolderStaysIndeterminate) {
  ProvSink s(2, 16, 8);
  s.on_attempt_begin(0, 3, 1);
  s.on_lock_wait(0, 5, 0x2040, /*holder=*/-1, 100);
  s.on_lock_acquired(0, 150);
  s.capture_footprint(0, {0x2040});
  s.on_attempt_commit(0, 200);
  const auto eps = s.episodes(0);
  ASSERT_EQ(eps.size(), 1u);
  EXPECT_EQ(eps[0].holder_core, 0xFFu);
  EXPECT_EQ(eps[0].classification,
            static_cast<std::uint8_t>(LockClass::kIndeterminate));
}

// ---------------------------------------------------------- analysis ----

ProvData two_core_data() {
  ProvData d;
  d.cap_per_core = 16;
  d.per_core.resize(2);
  auto blame = [](std::uint32_t site, std::uint32_t vpc, std::uint32_t apc,
                  std::uint8_t vcore, std::uint8_t acore,
                  std::uint64_t wasted) {
    BlameRecord r;
    r.alloc_site = site;
    r.victim_pc = vpc;
    r.aggressor_pc = apc;
    r.victim_core = vcore;
    r.aggressor_core = acore;
    r.wasted_cycles = wasted;
    r.flags = kBlameHasAggressor;
    return r;
  };
  d.per_core[0].blames = {blame(0x100, 0x10, 0x20, 0, 1, 50),
                          blame(0x100, 0x10, 0x20, 0, 1, 70)};
  d.per_core[1].blames = {blame(0x100, 0x20, 0x10, 1, 0, 30)};
  // One self-stamped capacity abort: a node but no nonreflexive edge.
  BlameRecord cap;
  cap.alloc_site = 0x200;
  cap.victim_pc = 0x30;
  cap.victim_core = 1;
  cap.aggressor_core = 1;
  cap.wasted_cycles = 10;
  d.per_core[1].blames.push_back(cap);  // no kBlameHasAggressor: no edge
  d.per_core[0].blame_emitted = 2;
  d.per_core[1].blame_emitted = 2;
  return d;
}

TEST(ProvGraph, AggregatesNodesAndSortsEdges) {
  const ConflictGraph g = build_conflict_graph(two_core_data());
  // Nodes: (0x100,0x10), (0x100,0x20), (0x200,0x30).
  ASSERT_EQ(g.nodes.size(), 3u);
  std::uint64_t victim_total = 0, wasted_total = 0;
  for (const auto& n : g.nodes) {
    victim_total += n.aborts_as_victim;
    wasted_total += n.wasted_cycles;
  }
  EXPECT_EQ(victim_total, 4u);
  EXPECT_EQ(wasted_total, 160u);
  // Edges: (0x20 -> 0x10) with 2 aborts/120 cycles, (0x10 -> 0x20) with
  // 1/30; sorted by wasted cycles descending.
  ASSERT_EQ(g.edges.size(), 2u);
  EXPECT_EQ(g.edges[0].aborts, 2u);
  EXPECT_EQ(g.edges[0].wasted_cycles, 120u);
  EXPECT_EQ(g.edges[1].aborts, 1u);
  EXPECT_EQ(g.edges[1].wasted_cycles, 30u);
  EXPECT_EQ(g.nodes[g.edges[0].dst].pc, 0x10u);
  EXPECT_EQ(g.nodes[g.edges[0].src].pc, 0x20u);
}

TEST(ProvLocks, EffectivenessAggregatesPerLock) {
  ProvData d;
  d.cap_per_core = 16;
  d.per_core.resize(1);
  auto ep = [](std::uint32_t lock, LockClass cls, std::uint64_t wait) {
    LockEpisodeRecord r;
    r.lock_idx = lock;
    r.classification = static_cast<std::uint8_t>(cls);
    r.wait_cycles = wait;
    return r;
  };
  d.per_core[0].episodes = {ep(1, LockClass::kConflictAvoided, 100),
                            ep(1, LockClass::kFalseSerialization, 40),
                            ep(1, LockClass::kIndeterminate, 7),
                            ep(2, LockClass::kConflictAvoided, 60)};
  d.per_core[0].episodes_emitted = 4;
  const auto rows = lock_effectiveness(d);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].lock_idx, 1u);
  EXPECT_EQ(rows[0].episodes, 3u);
  EXPECT_EQ(rows[0].conflict_avoided, 1u);
  EXPECT_EQ(rows[0].false_serialization, 1u);
  EXPECT_EQ(rows[0].indeterminate, 1u);
  EXPECT_EQ(rows[0].avoided_wait_cycles, 100u);
  EXPECT_EQ(rows[0].false_wait_cycles, 40u);
  EXPECT_EQ(rows[1].lock_idx, 2u);
  EXPECT_EQ(rows[1].conflict_avoided, 1u);
  const ProvSummary s = summarize_prov(d);
  EXPECT_EQ(s.conflict_avoided, 2u);
  EXPECT_EQ(s.false_serialization, 1u);
  EXPECT_EQ(s.indeterminate, 1u);
  EXPECT_EQ(s.lock_episodes, 4u);
}

TEST(ProvBinary, RoundTripPreservesRecordsAndDropCounts) {
  ProvSink s(2, /*cap=*/2, 8);
  s.on_attempt_begin(1, 7, 1);
  for (int i = 0; i < 3; ++i) {  // 3 > cap: one drop
    s.on_attempt_begin(0, 3, 1);
    run_conflict_abort(s, 0, 1, 0x1000 + 64u * i, 0x42,
                       static_cast<sim::Cycle>(100 + i));
  }
  const std::string path = tmp_path("prov_roundtrip.prf");
  std::string err;
  ASSERT_TRUE(export_prov(s, path, &err)) << err;
  ProvData d;
  ASSERT_TRUE(read_prov_file(path, &d, &err)) << err;
  std::remove(path.c_str());
  ASSERT_EQ(d.cores(), 2u);
  EXPECT_EQ(d.cap_per_core, 2u);
  EXPECT_EQ(d.per_core[0].blame_emitted, 3u);
  EXPECT_EQ(d.blame_dropped(), 1u);
  ASSERT_EQ(d.per_core[0].blames.size(), 2u);
  EXPECT_EQ(d.per_core[0].blames[0].at, 101u);
  EXPECT_EQ(d.per_core[0].blames[1].line, 0x1000u + 128u);
}

TEST(ProvBinary, RejectsGarbage) {
  const std::string path = tmp_path("prov_garbage.prf");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("definitely not a prof file", f);
  std::fclose(f);
  ProvData d;
  std::string err;
  EXPECT_FALSE(read_prov_file(path, &d, &err));
  EXPECT_FALSE(err.empty());
  std::remove(path.c_str());
}

// ---------------------------------------------------- allocation sites ----

TEST(HeapSites, RecordsSitePerLineWhenEnabled) {
  sim::Heap h(2, 1 << 20);
  h.set_site_tracking(true);
  const sim::Addr a = h.alloc(0, 200, 8, /*site=*/0x1234);  // spans lines
  EXPECT_EQ(h.alloc_site_for(a), 0x1234u);
  EXPECT_EQ(h.alloc_site_for(a + 128), 0x1234u);  // a middle line
  EXPECT_EQ(h.alloc_site_for(a + 199), 0x1234u);  // last byte's line
  EXPECT_EQ(h.alloc_site_for(0x8), 0u);           // foreign address
}

TEST(HeapSites, DisabledTrackingReturnsZero) {
  sim::Heap h(2, 1 << 20);
  const sim::Addr a = h.alloc(0, 64, 8, 0x1234);
  EXPECT_EQ(h.alloc_site_for(a), 0u);
}

TEST(HeapSites, ReallocationOverwritesSite) {
  sim::Heap h(2, 1 << 20);
  h.set_site_tracking(true);
  const sim::Addr a = h.alloc(0, 64, 8, 0x111);
  EXPECT_EQ(h.alloc_site_for(a), 0x111u);
  h.dealloc(a);
  const sim::Addr b = h.alloc(0, 64, 8, 0x222);
  EXPECT_EQ(h.alloc_site_for(b), 0x222u);
  if (b == a) {
    EXPECT_EQ(h.alloc_site_for(a), 0x222u);
  }
}

TEST(HeapSites, HugeBlocksCapRecordedLines) {
  sim::Heap h(2, 1 << 20);
  h.set_site_tracking(true);
  // 128 lines; only the first kMaxSiteLines (64) are recorded.
  const sim::Addr a = h.alloc(0, 128 * sim::kLineBytes, 8, 0x999);
  EXPECT_EQ(h.alloc_site_for(a), 0x999u);
  EXPECT_EQ(h.alloc_site_for(a + 63 * sim::kLineBytes), 0x999u);
  EXPECT_EQ(h.alloc_site_for(a + 64 * sim::kLineBytes), 0u);
}

TEST(HeapSites, ArenaOfMapsAddressesBack) {
  sim::Heap h(3, 1 << 16);
  const sim::Addr a0 = h.alloc(0, 64);
  const sim::Addr a2 = h.alloc(2, 64);
  EXPECT_EQ(h.arena_of(a0), 0);
  EXPECT_EQ(h.arena_of(a2), 2);
  EXPECT_EQ(h.arena_of(sim::Heap::kBase - 8), -1);
}

// ------------------------------------------------------- differentials ----

void expect_same_simulation(const workloads::RunResult& a,
                            const workloads::RunResult& b) {
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.total_ops, b.total_ops);
  for (const CounterDef& d : counter_registry())
    EXPECT_EQ(a.totals.*d.member, b.totals.*d.member) << d.name;
  ASSERT_EQ(a.per_core.size(), b.per_core.size());
  for (std::size_t c = 0; c < a.per_core.size(); ++c)
    for (const CounterDef& d : counter_registry())
      EXPECT_EQ(a.per_core[c].*d.member, b.per_core[c].*d.member)
          << "core " << c << " " << d.name;
  EXPECT_EQ(a.abort_trace_dropped, b.abort_trace_dropped);
  EXPECT_DOUBLE_EQ(a.conflict_addr_locality, b.conflict_addr_locality);
  EXPECT_DOUBLE_EQ(a.conflict_pc_locality, b.conflict_pc_locality);
}

TEST(ProvDifferential, ProvenanceDoesNotPerturbSimulatedResults) {
  workloads::RunOptions o;
  o.scheme = runtime::Scheme::kStaggered;
  o.threads = 4;
  o.ops_scale = 0.05;
  o.prof_path = std::string();  // force provenance off
  const auto off = workloads::run_workload("list-hi", o);
  EXPECT_FALSE(off.prov_enabled);

  const std::string path = tmp_path("prov_differential.prf");
  o.prof_path = path;
  const auto on = workloads::run_workload("list-hi", o);
  expect_same_simulation(off, on);
  EXPECT_GT(on.totals.commits, 0u);
  ASSERT_TRUE(on.prov_enabled);
  EXPECT_EQ(on.prof_path, path);

  // Every abort the stats counted must carry a blame record (the default
  // ring is far larger than this run's abort count, so none dropped).
  ProvData d;
  std::string err;
  ASSERT_TRUE(read_prov_file(path, &d, &err)) << err;
  std::remove(path.c_str());
  ASSERT_EQ(d.cores(), 4u);
  std::uint64_t blames = 0;
  for (const CoreProv& c : d.per_core) blames += c.blame_emitted;
  EXPECT_EQ(blames, on.totals.total_aborts());
  EXPECT_EQ(d.blame_dropped(), 0u);
  EXPECT_EQ(on.prov.blame_records, blames);
}

TEST(ProvDifferential, TinyRingStillDoesNotPerturbResults) {
  workloads::RunOptions o;
  o.scheme = runtime::Scheme::kStaggered;
  o.threads = 2;
  o.ops_scale = 0.05;
  o.prof_path = std::string();
  const auto off = workloads::run_workload("list-hi", o);

  ASSERT_EQ(setenv("STAGTM_PROF_CAP", "4", 1), 0);  // heavy wraparound
  const std::string path = tmp_path("prov_tiny_ring.prf");
  o.prof_path = path;
  const auto on = workloads::run_workload("list-hi", o);
  unsetenv("STAGTM_PROF_CAP");
  expect_same_simulation(off, on);

  ProvData d;
  std::string err;
  ASSERT_TRUE(read_prov_file(path, &d, &err)) << err;
  std::remove(path.c_str());
  EXPECT_EQ(d.cap_per_core, 4u);
  for (const CoreProv& c : d.per_core) EXPECT_LE(c.blames.size(), 4u);
  EXPECT_GT(d.blame_dropped(), 0u);  // the run aborts far more than 4/core
  EXPECT_EQ(on.prov.blame_dropped, d.blame_dropped());
}

TEST(ProvDifferential, LockEpisodesClassifiedInStaggeredRun) {
  workloads::RunOptions o;
  o.scheme = runtime::Scheme::kStaggered;
  o.threads = 4;
  o.ops_scale = 0.05;
  const std::string path = tmp_path("prov_staggered.prf");
  o.prof_path = path;
  const auto r = workloads::run_workload("list-hi", o);
  ProvData d;
  std::string err;
  ASSERT_TRUE(read_prov_file(path, &d, &err)) << err;
  std::remove(path.c_str());
  // A contended staggered run must produce lock-wait episodes, and the
  // classifier must reach a verdict (any class) for every one of them.
  const ProvSummary s = summarize_prov(d);
  EXPECT_GT(s.lock_episodes, 0u);
  EXPECT_EQ(s.conflict_avoided + s.false_serialization + s.indeterminate +
                s.episodes_dropped,
            s.lock_episodes);
  EXPECT_EQ(s.blame_records, r.totals.total_aborts());
}

TEST(ProvRunner, PerJobProfPathsProduceDistinctFiles) {
  const std::string p0 = tmp_path("prov_job0.prf");
  const std::string p1 = tmp_path("prov_job1.prf");
  workloads::ExperimentRunner runner(2);
  workloads::RunOptions o;
  o.scheme = runtime::Scheme::kBaseline;
  o.threads = 2;
  o.ops_scale = 0.02;
  o.prof_path = p0;
  const std::size_t j0 = runner.submit("list-hi", o);
  o.prof_path = p1;
  const std::size_t j1 = runner.submit("list-hi", o);
  const auto& r0 = runner.wait(j0);
  const auto& r1 = runner.wait(j1);
  EXPECT_EQ(r0.prof_path, p0);
  EXPECT_EQ(r1.prof_path, p1);
  ProvData d0, d1;
  std::string err;
  EXPECT_TRUE(read_prov_file(p0, &d0, &err)) << err;
  EXPECT_TRUE(read_prov_file(p1, &d1, &err)) << err;
  std::remove(p0.c_str());
  std::remove(p1.c_str());
}

}  // namespace
}  // namespace st::obs
