// Bucketed priority queue in TxIR (the tsp task queue; DESIGN.md explains
// the substitution for STAMP's B+-tree queue). Priorities map to buckets by
// a right shift; pop scans buckets from the minimum, so — like the paper's
// left-most B+-tree leaf — the head of the queue is the contention hot spot.
// There is deliberately no `size` field (the paper removed it too).
#pragma once

#include "workloads/dslib/list.hpp"

namespace st::workloads::dslib {

struct PqLib {
  const ir::StructType* pq_t = nullptr;       // { nbuckets, shift, buckets }
  const ir::StructType* pbucketarr_t = nullptr;  // array of *list
  ListLib list;

  ir::Function* push = nullptr;  // (pq, prio, val) -> 0
  ir::Function* pop = nullptr;   // (pq) -> val of a minimum-bucket task (0 = empty)
};

PqLib build_pq_lib(ir::Module& m, unsigned nbuckets);

// --- host-side helpers ---
sim::Addr host_pq_new(sim::Heap& heap, unsigned arena, const PqLib& lib,
                      unsigned nbuckets, unsigned shift);
/// Fills the empty queue `pq` with (prio, val) `items` in one pass: each
/// item goes to the bucket `push` picks for it, nodes are allocated in item
/// order across all buckets, and each bucket is linked as host_list_build
/// links a list (equal priorities newest first). Priorities must be >= 0
/// and values nonzero (pop returns 0 for an empty queue).
void host_pq_build(sim::Heap& heap, unsigned arena, const PqLib& lib,
                   sim::Addr pq, std::span<const KeyVal> items);
/// Total queued entries (verification).
std::size_t host_pq_size(const sim::Heap& heap, const PqLib& lib,
                         sim::Addr pq);

}  // namespace st::workloads::dslib
