// Sorted singly-linked list (IntSet) and LIFO front-ops, in TxIR.
//
// The same library serves the list microbenchmarks, hash-table buckets
// (genome/memcached/intruder) and priority-queue buckets (tsp) — call-site
// cloning in the bottom-up DSA stage keeps each use context-sensitive.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "ir/builder.hpp"
#include "sim/heap.hpp"

namespace st::workloads::dslib {

struct ListLib {
  const ir::StructType* list_t = nullptr;  // { head: *node }
  const ir::StructType* node_t = nullptr;  // { key, val, next: *node }

  ir::Function* find = nullptr;     // (list*, key) -> node* with node.key >= key, else 0
  ir::Function* contains = nullptr; // (list*, key) -> bool
  ir::Function* insert = nullptr;   // (list*, key, val) -> bool (false if present)
  ir::Function* remove = nullptr;   // (list*, key) -> bool
  ir::Function* push_front = nullptr;  // (list*, key, val) -> 0
  ir::Function* pop_front = nullptr;   // (list*) -> val (0 when empty)
};

/// Adds the list types and functions to `m` (idempotent per module).
ListLib build_list_lib(ir::Module& m);

// --- host-side helpers (setup/verification; no simulated cycles) ---

/// A node's (key, val) pair as the host-side helpers read and write it.
using KeyVal = std::pair<std::int64_t, std::int64_t>;

sim::Addr host_list_new(sim::Heap& heap, unsigned arena, const ListLib& lib);
/// Fills the empty `list` with `items` with one sort and one link pass.
/// - Allocation order: one node per item, allocated in item order, so each
///   node gets the address a one-by-one sorted insert would give it.
/// - Link order: ascending key. Among equal keys the later item comes
///   first, because a sorted insert stops at the first node whose key is
///   >= its own.
/// The heap therefore ends up word for word as that insert sequence would
/// leave it, and simulated results do not depend on which one built it.
void host_list_build(sim::Heap& heap, unsigned arena, const ListLib& lib,
                     sim::Addr list, std::span<const KeyVal> items);
/// The bucketed form behind host_ht_build and host_pq_build: item i goes to
/// the empty list `lists[bucket[i]]`. Nodes are allocated in item order
/// across all the lists, and each list is linked as host_list_build links
/// it.
void host_lists_build(sim::Heap& heap, unsigned arena, const ListLib& lib,
                      std::span<const sim::Addr> lists,
                      std::span<const KeyVal> items,
                      std::span<const unsigned> bucket);
std::vector<KeyVal> host_list_items(const sim::Heap& heap, const ListLib& lib,
                                    sim::Addr list);
/// Checks strict key ordering; returns the length.
std::size_t host_list_check_sorted(const sim::Heap& heap, const ListLib& lib,
                                   sim::Addr list);
/// Non-aborting structural check for the correctness checker
/// (Workload::check_invariants): returns "" when the list is well-formed,
/// else a description of the first violation. Safe on corrupted state —
/// wild pointers and cycles are reported, never chased past `max_nodes`.
std::string host_list_validate(const sim::Heap& heap, const ListLib& lib,
                               sim::Addr list, bool require_sorted,
                               std::size_t max_nodes = 1u << 20);

}  // namespace st::workloads::dslib
