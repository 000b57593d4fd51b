// Reference host-side inserts for the dslib set-up builders.
//
// Each function adds one node in sorted position by walking the list from
// its head: O(n) per insert, O(n^2) to build a list. The library builds
// set-up lists in one pass instead (host_list_build, host_ht_build,
// host_pq_build), promising the heap this one-by-one sequence would leave,
// word for word. Tests check that promise against these functions, and use
// them to push a node into a list that is already populated.
#pragma once

#include <cstdint>

#include "workloads/dslib/hashtable.hpp"
#include "workloads/dslib/list.hpp"
#include "workloads/dslib/pqueue.hpp"

namespace st::workloads::dslib::reference {

inline unsigned field_offset(const ir::StructType* t, const char* name) {
  return t->fields[t->field_index(name)].offset;
}

/// Allocates a node and links it before the first node whose key is >= its
/// own, so equal keys end up newest first.
inline void list_push_sorted(sim::Heap& heap, unsigned arena,
                             const ListLib& lib, sim::Addr list,
                             std::int64_t key, std::int64_t val) {
  const unsigned head = field_offset(lib.list_t, "head");
  const unsigned k = field_offset(lib.node_t, "key");
  const unsigned v = field_offset(lib.node_t, "val");
  const unsigned next = field_offset(lib.node_t, "next");
  const sim::Addr n = heap.alloc(arena, lib.node_t->size);
  heap.store(n + k, static_cast<std::uint64_t>(key), 8);
  heap.store(n + v, static_cast<std::uint64_t>(val), 8);
  sim::Addr prev = 0;
  sim::Addr cur = heap.load(list + head, 8);
  while (cur != 0 && static_cast<std::int64_t>(heap.load(cur + k, 8)) < key) {
    prev = cur;
    cur = heap.load(cur + next, 8);
  }
  heap.store(n + next, cur, 8);
  if (prev == 0)
    heap.store(list + head, n, 8);
  else
    heap.store(prev + next, n, 8);
}

/// Sorted insert into the bucket host_ht_bucket names.
inline void ht_insert(sim::Heap& heap, unsigned arena, const HashLib& lib,
                      sim::Addr ht, std::int64_t key, std::int64_t val) {
  const unsigned idx = host_ht_bucket(heap, lib, ht, key);
  const sim::Addr barr = heap.load(ht + lib.htab_t->field(1).offset, 8);
  list_push_sorted(heap, arena, lib.list,
                   heap.load(barr + std::size_t{idx} * 8, 8), key, val);
}

/// Sorted insert into bucket prio >> shift, clamped to the last bucket.
inline void pq_push(sim::Heap& heap, unsigned arena, const PqLib& lib,
                    sim::Addr pq, std::int64_t prio, std::int64_t val) {
  const auto n = heap.load(pq + lib.pq_t->field(0).offset, 8);
  const auto sh = heap.load(pq + lib.pq_t->field(1).offset, 8);
  std::uint64_t idx = static_cast<std::uint64_t>(prio) >> sh;
  if (idx >= n) idx = n - 1;
  const sim::Addr barr = heap.load(pq + lib.pq_t->field(2).offset, 8);
  list_push_sorted(heap, arena, lib.list, heap.load(barr + idx * 8, 8), prio,
                   val);
}

}  // namespace st::workloads::dslib::reference
