// Advisory lock table (paper §5.1, AcquireLockFor).
//
// A static set of pre-allocated lock words, one per cache line; a data
// address hashes to one of them. Locks are acquired and released with
// nontransactional accesses, so holding one never joins a transaction's
// read/write set and a lock survives (and is explicitly released after) an
// abort. At most one advisory lock is held per core at a time.
#pragma once

#include <cstdint>
#include <vector>

#include "htm/htm.hpp"

namespace st::stagger {

class AdvisoryLockTable {
 public:
  AdvisoryLockTable(htm::HtmSystem& htm, unsigned num_locks);

  struct TryResult {
    bool acquired = false;
    sim::Cycle latency = 0;
  };
  /// One nontransactional CAS attempt on the lock `data_addr` hashes to.
  /// The caller decides whether to spin (re-call) or time out.
  TryResult try_acquire(sim::CoreId c, sim::Addr data_addr);

  /// Releases the lock held by core c (no-op when none is held).
  sim::Cycle release(sim::CoreId c);

  bool holds_lock(sim::CoreId c) const { return held_[c].lock >= 0; }

  /// True when some other core attempted to take the lock while `c` has
  /// been holding it — the signal for the policy's anti-over-locking rule.
  bool contended_while_held(sim::CoreId c) const {
    return held_[c].contended;
  }

  unsigned lock_index(sim::Addr data_addr) const;
  unsigned size() const { return static_cast<unsigned>(locks_.size()); }
  sim::Addr lock_addr(unsigned idx) const { return locks_[idx]; }

  /// Optional event sink: emits lock_acquire / lock_release (with hold
  /// duration) events. The hold-time histogram in CoreStats is recorded
  /// regardless. Null disables event emission.
  void set_trace(obs::TraceSink* trace) { trace_ = trace; }

  /// Optional provenance sink: a failed CAS against a held lock opens a
  /// wait episode against the observed holder; a successful one resolves
  /// it. Null disables (and changes nothing simulated).
  void set_prov(obs::ProvSink* prov) { prov_ = prov; }

 private:
  htm::HtmSystem& htm_;
  obs::TraceSink* trace_ = nullptr;
  obs::ProvSink* prov_ = nullptr;
  std::vector<sim::Addr> locks_;  // line-aligned lock words
  struct Held {
    int lock = -1;
    bool contended = false;
    sim::Cycle acquired_at = 0;
  };
  std::vector<Held> held_;  // per core
};

}  // namespace st::stagger
