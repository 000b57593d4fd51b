// Functional correctness of the TxIR data-structure library, executed
// through the full simulator stack (single core: no conflicts, pure
// semantics).
#include <gtest/gtest.h>

#include "dslib_reference.hpp"
#include "test_util.hpp"
#include "workloads/dslib/bst.hpp"
#include "workloads/dslib/hashtable.hpp"
#include "workloads/dslib/pqueue.hpp"

namespace st::workloads::dslib {
namespace {

using testutil::MiniSystem;

struct ListFixture {
  MiniSystem ms;
  ListLib lib;
  sim::Addr list = 0;

  ListFixture() {
    lib = build_list_lib(ms.module);
    ms.module.add_atomic_block(lib.contains);   // ab 0
    ms.module.add_atomic_block(lib.insert);     // ab 1
    ms.module.add_atomic_block(lib.remove);     // ab 2
    ms.module.add_atomic_block(lib.push_front); // ab 3
    ms.module.add_atomic_block(lib.pop_front);  // ab 4
    ms.module.add_atomic_block(lib.find);       // ab 5
    ms.boot();
    list = host_list_new(ms.sys->heap(), ms.sys->heap().setup_arena(), lib);
  }
};

TEST(List, InsertContainsRemoveRoundTrip) {
  ListFixture f;
  EXPECT_EQ(f.ms.run_ab(0, {f.list, 5}), 0u);
  EXPECT_EQ(f.ms.run_ab(1, {f.list, 5, 50}), 1u);
  EXPECT_EQ(f.ms.run_ab(0, {f.list, 5}), 1u);
  EXPECT_EQ(f.ms.run_ab(1, {f.list, 5, 50}), 0u);  // duplicate rejected
  EXPECT_EQ(f.ms.run_ab(2, {f.list, 5}), 1u);
  EXPECT_EQ(f.ms.run_ab(0, {f.list, 5}), 0u);
  EXPECT_EQ(f.ms.run_ab(2, {f.list, 5}), 0u);  // remove of absent key
}

TEST(List, StaysSortedUnderRandomOps) {
  ListFixture f;
  Xoshiro256ss rng(3);
  std::set<std::uint64_t> model;
  for (int i = 0; i < 300; ++i) {
    const std::uint64_t k = rng.next_range(1, 40);
    switch (rng.next_below(3)) {
      case 0:
        EXPECT_EQ(f.ms.run_ab(0, {f.list, k}), model.count(k));
        break;
      case 1:
        EXPECT_EQ(f.ms.run_ab(1, {f.list, k, k}), model.insert(k).second);
        break;
      default:
        EXPECT_EQ(f.ms.run_ab(2, {f.list, k}), model.erase(k));
        break;
    }
    if (i % 50 == 0) {
      EXPECT_EQ(host_list_check_sorted(f.ms.sys->heap(), f.lib, f.list),
                model.size());
    }
  }
  const auto items = host_list_items(f.ms.sys->heap(), f.lib, f.list);
  ASSERT_EQ(items.size(), model.size());
  auto it = model.begin();
  for (const auto& [k, v] : items) {
    EXPECT_EQ(static_cast<std::uint64_t>(k), *it++);
    EXPECT_EQ(k, v);
  }
}

TEST(List, BoundaryInsertionsFrontAndBack) {
  ListFixture f;
  f.ms.run_ab(1, {f.list, 10, 10});
  f.ms.run_ab(1, {f.list, 5, 5});   // new head
  f.ms.run_ab(1, {f.list, 20, 20}); // new tail
  const auto items = host_list_items(f.ms.sys->heap(), f.lib, f.list);
  ASSERT_EQ(items.size(), 3u);
  EXPECT_EQ(items[0].first, 5);
  EXPECT_EQ(items[2].first, 20);
  // Remove head and tail.
  EXPECT_EQ(f.ms.run_ab(2, {f.list, 5}), 1u);
  EXPECT_EQ(f.ms.run_ab(2, {f.list, 20}), 1u);
  EXPECT_EQ(host_list_check_sorted(f.ms.sys->heap(), f.lib, f.list), 1u);
}

TEST(List, PushPopFrontBehavesLikeAStack) {
  ListFixture f;
  f.ms.run_ab(3, {f.list, 1, 11});
  f.ms.run_ab(3, {f.list, 2, 22});
  f.ms.run_ab(3, {f.list, 3, 33});
  EXPECT_EQ(f.ms.run_ab(4, {f.list}), 33u);
  EXPECT_EQ(f.ms.run_ab(4, {f.list}), 22u);
  EXPECT_EQ(f.ms.run_ab(4, {f.list}), 11u);
  EXPECT_EQ(f.ms.run_ab(4, {f.list}), 0u);  // empty
}

TEST(List, FindReturnsFirstNodeWithGeKey) {
  ListFixture f;
  f.ms.run_ab(1, {f.list, 10, 10});
  f.ms.run_ab(1, {f.list, 30, 30});
  const auto n = f.ms.run_ab(5, {f.list, 20});
  ASSERT_NE(n, 0u);
  // The node found must hold key 30.
  EXPECT_EQ(f.ms.sys->heap().load(
                n + f.lib.node_t->fields[f.lib.node_t->field_index("key")]
                        .offset,
                8),
            30u);
  EXPECT_EQ(f.ms.run_ab(5, {f.list, 31}), 0u);  // past the end
}

TEST(List, RemoveFreesNodes) {
  ListFixture f;
  const auto live0 = f.ms.sys->heap().live_blocks();
  f.ms.run_ab(1, {f.list, 5, 5});
  EXPECT_EQ(f.ms.sys->heap().live_blocks(), live0 + 1);
  f.ms.run_ab(2, {f.list, 5});
  EXPECT_EQ(f.ms.sys->heap().live_blocks(), live0);
}

struct HashFixture {
  MiniSystem ms;
  HashLib lib;
  sim::Addr ht = 0;

  HashFixture() {
    lib = build_hash_lib(ms.module, 8);
    ms.module.add_atomic_block(lib.contains);  // 0
    ms.module.add_atomic_block(lib.insert);    // 1
    ms.module.add_atomic_block(lib.update);    // 2
    ms.module.add_atomic_block(lib.find);      // 3
    ms.module.add_atomic_block(lib.remove);    // 4
    ms.boot();
    ht = host_ht_new(ms.sys->heap(), ms.sys->heap().setup_arena(), lib, 8);
  }
};

TEST(HashTable, InsertLookupAcrossBuckets) {
  HashFixture f;
  for (std::uint64_t k = 1; k <= 40; ++k)
    EXPECT_EQ(f.ms.run_ab(1, {f.ht, k, k * 10}), 1u);
  for (std::uint64_t k = 1; k <= 40; ++k)
    EXPECT_EQ(f.ms.run_ab(0, {f.ht, k}), 1u);
  EXPECT_EQ(f.ms.run_ab(0, {f.ht, 99}), 0u);
  EXPECT_EQ(host_ht_items(f.ms.sys->heap(), f.lib, f.ht).size(), 40u);
}

TEST(HashTable, UpdateChangesValueOnlyWhenPresent) {
  HashFixture f;
  EXPECT_EQ(f.ms.run_ab(2, {f.ht, 7, 1}), 0u);  // absent
  f.ms.run_ab(1, {f.ht, 7, 1});
  EXPECT_EQ(f.ms.run_ab(2, {f.ht, 7, 2}), 1u);
  const auto items = host_ht_items(f.ms.sys->heap(), f.lib, f.ht);
  ASSERT_EQ(items.size(), 1u);
  EXPECT_EQ(items[0].second, 2);
}

TEST(HashTable, RemoveDeletesExactKey) {
  HashFixture f;
  // Keys 3 and 11 share bucket 3 (mod 8).
  f.ms.run_ab(1, {f.ht, 3, 3});
  f.ms.run_ab(1, {f.ht, 11, 11});
  EXPECT_EQ(f.ms.run_ab(4, {f.ht, 3}), 1u);
  EXPECT_EQ(f.ms.run_ab(0, {f.ht, 3}), 0u);
  EXPECT_EQ(f.ms.run_ab(0, {f.ht, 11}), 1u);
}

TEST(HashTable, FindReturnsExactMatchOnly) {
  HashFixture f;
  f.ms.run_ab(1, {f.ht, 16, 160});  // bucket 0
  EXPECT_NE(f.ms.run_ab(3, {f.ht, 16}), 0u);
  EXPECT_EQ(f.ms.run_ab(3, {f.ht, 8}), 0u);  // same bucket, different key
}

struct BstFixture {
  MiniSystem ms;
  BstLib lib;
  sim::Addr tree = 0;

  BstFixture() {
    lib = build_bst_lib(ms.module);
    ms.module.add_atomic_block(lib.lookup);   // 0
    ms.module.add_atomic_block(lib.insert);   // 1
    ms.module.add_atomic_block(lib.reserve);  // 2
    ms.module.add_atomic_block(lib.restore);  // 3
    ms.boot();
    tree = host_bst_new(ms.sys->heap(), ms.sys->heap().setup_arena(), lib);
  }
};

TEST(Bst, InsertAndLookup) {
  BstFixture f;
  EXPECT_EQ(f.ms.run_ab(1, {f.tree, 50, 500}), 1u);
  EXPECT_EQ(f.ms.run_ab(1, {f.tree, 25, 250}), 1u);
  EXPECT_EQ(f.ms.run_ab(1, {f.tree, 75, 750}), 1u);
  EXPECT_EQ(f.ms.run_ab(1, {f.tree, 50, 1}), 0u);  // duplicate
  EXPECT_EQ(f.ms.run_ab(0, {f.tree, 25}), 250u);
  EXPECT_EQ(f.ms.run_ab(0, {f.tree, 75}), 750u);
  EXPECT_EQ(f.ms.run_ab(0, {f.tree, 60}), 0u);
  host_bst_sum_and_check(f.ms.sys->heap(), f.lib, f.tree);
}

TEST(Bst, ReserveDecrementsUntilZeroRestoreGivesBack) {
  BstFixture f;
  f.ms.run_ab(1, {f.tree, 5, 2});
  EXPECT_EQ(f.ms.run_ab(2, {f.tree, 5}), 1u);
  EXPECT_EQ(f.ms.run_ab(2, {f.tree, 5}), 1u);
  EXPECT_EQ(f.ms.run_ab(2, {f.tree, 5}), 0u);  // exhausted
  EXPECT_EQ(f.ms.run_ab(3, {f.tree, 5}), 1u);  // cancel returns capacity
  EXPECT_EQ(f.ms.run_ab(2, {f.tree, 5}), 1u);
  EXPECT_EQ(f.ms.run_ab(2, {f.tree, 99}), 0u);  // absent key
}

TEST(Bst, AgreesWithModelUnderRandomInserts) {
  BstFixture f;
  Xoshiro256ss rng(11);
  std::map<std::uint64_t, std::uint64_t> model;
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t k = rng.next_range(1, 100);
    const std::uint64_t v = rng.next_range(1, 1000);
    const bool fresh = model.emplace(k, v).second;
    EXPECT_EQ(f.ms.run_ab(1, {f.tree, k, v}), fresh ? 1u : 0u);
  }
  for (const auto& [k, v] : model)
    EXPECT_EQ(f.ms.run_ab(0, {f.tree, k}), v);
  host_bst_sum_and_check(f.ms.sys->heap(), f.lib, f.tree);
}

struct PqFixture {
  MiniSystem ms;
  PqLib lib;
  sim::Addr pq = 0;

  PqFixture() {
    lib = build_pq_lib(ms.module, 8);
    ms.module.add_atomic_block(lib.push);  // 0
    ms.module.add_atomic_block(lib.pop);   // 1
    ms.boot();
    // shift 4: priorities 0..127 map to buckets 0..7.
    pq = host_pq_new(ms.sys->heap(), ms.sys->heap().setup_arena(), lib, 8, 4);
  }
};

TEST(PQueue, PopsFromTheMinimumBucketFirst) {
  PqFixture f;
  f.ms.run_ab(0, {f.pq, 100, 1001});  // bucket 6
  f.ms.run_ab(0, {f.pq, 5, 1002});    // bucket 0
  f.ms.run_ab(0, {f.pq, 40, 1003});   // bucket 2
  EXPECT_EQ(f.ms.run_ab(1, {f.pq}), 1002u);
  EXPECT_EQ(f.ms.run_ab(1, {f.pq}), 1003u);
  EXPECT_EQ(f.ms.run_ab(1, {f.pq}), 1001u);
  EXPECT_EQ(f.ms.run_ab(1, {f.pq}), 0u);  // drained
}

TEST(PQueue, OverflowPrioritiesClampToLastBucket) {
  PqFixture f;
  f.ms.run_ab(0, {f.pq, 5000, 7u});
  EXPECT_EQ(host_pq_size(f.ms.sys->heap(), f.lib, f.pq), 1u);
  EXPECT_EQ(f.ms.run_ab(1, {f.pq}), 7u);
}

TEST(PQueue, ConservesEntries) {
  PqFixture f;
  Xoshiro256ss rng(4);
  std::size_t pushed = 0, popped = 0;
  for (int i = 0; i < 200; ++i) {
    if (rng.chance_pct(60)) {
      f.ms.run_ab(0, {f.pq, rng.next_below(128), rng.next_range(1, 1u << 20)});
      ++pushed;
    } else if (f.ms.run_ab(1, {f.pq}) != 0) {
      ++popped;
    }
  }
  EXPECT_EQ(host_pq_size(f.ms.sys->heap(), f.lib, f.pq), pushed - popped);
}

TEST(PQueue, HostAndIrPushesInteroperate) {
  PqFixture f;
  const KeyVal task{3, 42};
  host_pq_build(f.ms.sys->heap(), f.ms.sys->heap().setup_arena(), f.lib, f.pq,
                {&task, 1});
  f.ms.run_ab(0, {f.pq, 90, 43});
  EXPECT_EQ(f.ms.run_ab(1, {f.pq}), 42u);
  EXPECT_EQ(f.ms.run_ab(1, {f.pq}), 43u);
}

// ---------------------- one-pass set-up builders --------------------------
//
// Each builder must leave the heap word for word as inserting its items one
// by one in sorted position (tests/dslib_reference.hpp) would: same node
// addresses, links, keys and values, so simulated runs cannot tell which
// one set the workload up.

/// "" when the setup arenas of `a` and `b` hold the same live blocks at the
/// same addresses with the same words, else the first difference.
std::string heap_diff(const sim::Heap& a, const sim::Heap& b) {
  if (a.bytes_allocated() != b.bytes_allocated() ||
      a.live_blocks() != b.live_blocks())
    return "allocation totals differ";
  const sim::Addr base =
      sim::Heap::kBase + std::size_t{a.setup_arena()} * a.arena_stride();
  std::size_t blocks = 0;
  for (sim::Addr p = base; p < base + a.arena_bytes(); p += 8) {
    std::size_t na = 0, nb = 0;
    const bool la = a.live_block_at(p, &na), lb = b.live_block_at(p, &nb);
    if (la != lb || na != nb)
      return "block layout differs at " + std::to_string(p);
    if (!la) continue;
    ++blocks;
    for (std::size_t off = 0; off < na; off += 8)
      if (a.load(p + off, 8) != b.load(p + off, 8))
        return "word differs at " + std::to_string(p + off);
  }
  return blocks == a.live_blocks() ? "" : "live block outside the setup arena";
}

/// Runs `build` and `ref` on two fresh heaps and compares every word.
template <typename Build, typename Ref>
void expect_same_heap(Build build, Ref ref) {
  sim::Heap built(1, 1 << 20), inserted(1, 1 << 20);
  build(built, built.setup_arena());
  ref(inserted, inserted.setup_arena());
  EXPECT_EQ(heap_diff(built, inserted), "");
}

TEST(Builders, ListOfAscendingKeysMatchesSortedInserts) {
  // Intruder's work queue: flow ids 1..n in order.
  ir::Module m;
  const ListLib lib = build_list_lib(m);
  std::vector<KeyVal> items;
  for (std::int64_t k = 1; k <= 3000; ++k) items.emplace_back(k, k);
  expect_same_heap(
      [&](sim::Heap& h, unsigned arena) {
        host_list_build(h, arena, lib, host_list_new(h, arena, lib), items);
      },
      [&](sim::Heap& h, unsigned arena) {
        const sim::Addr l = host_list_new(h, arena, lib);
        for (const auto& [k, v] : items)
          reference::list_push_sorted(h, arena, lib, l, k, v);
      });
}

TEST(Builders, DuplicateKeysComeOutNewestFirst) {
  // Tsp's task queue: random priorities with many repeats.
  ir::Module m;
  const PqLib lib = build_pq_lib(m, 16);
  Xoshiro256ss rng(11);
  std::vector<KeyVal> items;
  for (std::int64_t i = 1; i <= 800; ++i)
    items.emplace_back(static_cast<std::int64_t>(rng.next_below(300)), i);
  expect_same_heap(
      [&](sim::Heap& h, unsigned arena) {
        host_list_build(h, arena, lib.list, host_list_new(h, arena, lib.list),
                        items);
      },
      [&](sim::Heap& h, unsigned arena) {
        const sim::Addr l = host_list_new(h, arena, lib.list);
        for (const auto& [k, v] : items)
          reference::list_push_sorted(h, arena, lib.list, l, k, v);
      });
  // shift 3 sends priorities >= 128 to the last bucket.
  expect_same_heap(
      [&](sim::Heap& h, unsigned arena) {
        host_pq_build(h, arena, lib, host_pq_new(h, arena, lib, 16, 3), items);
      },
      [&](sim::Heap& h, unsigned arena) {
        const sim::Addr pq = host_pq_new(h, arena, lib, 16, 3);
        for (const auto& [k, v] : items)
          reference::pq_push(h, arena, lib, pq, k, v);
      });

  // The tie rule on its own: equal keys list their values newest first.
  sim::Heap h(1, 1 << 20);
  const unsigned arena = h.setup_arena();
  const sim::Addr l = host_list_new(h, arena, lib.list);
  host_list_build(h, arena, lib.list, l, items);
  const auto out = host_list_items(h, lib.list, l);
  ASSERT_EQ(out.size(), items.size());
  for (std::size_t i = 1; i < out.size(); ++i) {
    ASSERT_LE(out[i - 1].first, out[i].first);
    if (out[i - 1].first == out[i].first) {
      EXPECT_GT(out[i - 1].second, out[i].second) << "key " << out[i].first;
    }
  }
}

TEST(Builders, HashTableAllocatesInItemOrderAcrossBuckets) {
  // Memcached's store: distinct keys spread over the buckets, inserted in
  // ascending order; then the same keys shuffled, plus repeats.
  ir::Module m;
  const HashLib lib = build_hash_lib(m, 64);
  Xoshiro256ss rng(5);
  std::set<std::int64_t> keys;
  while (keys.size() < 1500)
    keys.insert(static_cast<std::int64_t>(rng.next_range(1, 1 << 16)));
  std::vector<KeyVal> sorted, shuffled;
  for (const std::int64_t k : keys) sorted.emplace_back(k, k);
  shuffled = sorted;
  for (std::size_t i = shuffled.size(); i > 1; --i)
    std::swap(shuffled[i - 1], shuffled[rng.next_below(i)]);
  for (std::size_t i = 0; i < 200; ++i)
    shuffled.emplace_back(sorted[rng.next_below(sorted.size())].first, -1);
  for (const auto* items : {&sorted, &shuffled})
    expect_same_heap(
        [&](sim::Heap& h, unsigned arena) {
          host_ht_build(h, arena, lib, host_ht_new(h, arena, lib, 64),
                        *items);
        },
        [&](sim::Heap& h, unsigned arena) {
          const sim::Addr ht = host_ht_new(h, arena, lib, 64);
          for (const auto& [k, v] : *items)
            reference::ht_insert(h, arena, lib, ht, k, v);
        });
}

TEST(Builders, EmptyAndSingleItemInputs) {
  ir::Module m;
  const HashLib ht_lib = build_hash_lib(m, 8);
  const PqLib pq_lib = build_pq_lib(m, 8);
  const ListLib& lib = ht_lib.list;
  for (const std::vector<KeyVal>& items :
       {std::vector<KeyVal>{}, std::vector<KeyVal>{{7, 70}}}) {
    expect_same_heap(
        [&](sim::Heap& h, unsigned arena) {
          host_list_build(h, arena, lib, host_list_new(h, arena, lib), items);
        },
        [&](sim::Heap& h, unsigned arena) {
          const sim::Addr l = host_list_new(h, arena, lib);
          for (const auto& [k, v] : items)
            reference::list_push_sorted(h, arena, lib, l, k, v);
        });
    expect_same_heap(
        [&](sim::Heap& h, unsigned arena) {
          host_ht_build(h, arena, ht_lib, host_ht_new(h, arena, ht_lib, 8),
                        items);
        },
        [&](sim::Heap& h, unsigned arena) {
          const sim::Addr ht = host_ht_new(h, arena, ht_lib, 8);
          for (const auto& [k, v] : items)
            reference::ht_insert(h, arena, ht_lib, ht, k, v);
        });
    expect_same_heap(
        [&](sim::Heap& h, unsigned arena) {
          host_pq_build(h, arena, pq_lib, host_pq_new(h, arena, pq_lib, 8, 2),
                        items);
        },
        [&](sim::Heap& h, unsigned arena) {
          const sim::Addr pq = host_pq_new(h, arena, pq_lib, 8, 2);
          for (const auto& [k, v] : items)
            reference::pq_push(h, arena, pq_lib, pq, k, v);
        });
  }
}

TEST(Builders, RejectPopulatedLists) {
  ir::Module m;
  const ListLib lib = build_list_lib(m);
  sim::Heap h(1, 1 << 20);
  const unsigned arena = h.setup_arena();
  const sim::Addr l = host_list_new(h, arena, lib);
  reference::list_push_sorted(h, arena, lib, l, 1, 1);
  const KeyVal item{2, 2};
  EXPECT_DEATH(host_list_build(h, arena, lib, l, {&item, 1}), "empty lists");
}

}  // namespace
}  // namespace st::workloads::dslib
