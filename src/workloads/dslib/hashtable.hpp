// Fixed-size external-chaining hash table in TxIR (genome / memcached /
// intruder reassembly map). Buckets are sorted lists from dslib/list.hpp,
// reached through a pointer array — reproducing the anchor/parent chain of
// the paper's Fig. 3 (htab -> bucket array -> list -> node).
#pragma once

#include "workloads/dslib/list.hpp"

namespace st::workloads::dslib {

struct HashLib {
  const ir::StructType* htab_t = nullptr;      // { nbuckets, buckets }
  const ir::StructType* bucketarr_t = nullptr; // array of *list
  ListLib list;

  ir::Function* insert = nullptr;    // (ht, key, val) -> bool
  ir::Function* contains = nullptr;  // (ht, key) -> bool
  ir::Function* find = nullptr;      // (ht, key) -> node* (exact match or 0)
  ir::Function* update = nullptr;    // (ht, key, val) -> bool (false if absent)
  ir::Function* remove = nullptr;    // (ht, key) -> bool
};

/// Adds hash-table types/functions to `m`; builds the list library too.
HashLib build_hash_lib(ir::Module& m, unsigned nbuckets);

// --- host-side helpers ---
sim::Addr host_ht_new(sim::Heap& heap, unsigned arena, const HashLib& lib,
                      unsigned nbuckets);
/// Fills the empty table `ht` with `items` in one pass: each item goes to
/// the bucket host_ht_bucket names, nodes are allocated in item order across
/// all buckets, and each bucket is linked as host_list_build links a list.
void host_ht_build(sim::Heap& heap, unsigned arena, const HashLib& lib,
                   sim::Addr ht, std::span<const KeyVal> items);
/// All (key, val) pairs, bucket by bucket.
std::vector<KeyVal> host_ht_items(const sim::Heap& heap, const HashLib& lib,
                                  sim::Addr ht);
/// Bucket index the IR uses for `key`.
unsigned host_ht_bucket(const sim::Heap& heap, const HashLib& lib,
                        sim::Addr ht, std::int64_t key);
/// Non-aborting structural check (Workload::check_invariants): "" when the
/// table header and every bucket list are well-formed (sorted, no wild
/// pointers or cycles, every key hashing to its bucket), else a description
/// of the first violation.
std::string host_ht_validate(const sim::Heap& heap, const HashLib& lib,
                             sim::Addr ht, std::size_t max_nodes = 1u << 20);

}  // namespace st::workloads::dslib
