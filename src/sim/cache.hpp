// Cache tag arrays.
//
// Data values never live in the caches (they are in sim::Heap and in the HTM
// write buffers); the caches model presence, coherence state, transactional
// read/write bits, and the per-line conflicting-PC tag of §4 of the paper.
//
// Host-side fast paths (none of which change simulated results):
//  - A per-core speculative-line log records the slot of every line on its
//    first speculative touch, so commit/abort bookkeeping walks only the
//    transaction's footprint instead of sweeping all sets × ways.
//  - A per-set MRU way hint lets the common re-access hit without scanning
//    every way.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/check.hpp"
#include "sim/types.hpp"

namespace st::sim {

/// MOESI coherence states. The directory keeps the authoritative owner /
/// sharer sets; per-line states exist in L1 only.
enum class Coh : std::uint8_t { I, S, E, O, M };

inline bool coh_can_write(Coh c) { return c == Coh::E || c == Coh::M; }

struct L1Line {
  Addr line = 0;  // line-aligned address; valid iff state != I
  Coh state = Coh::I;
  bool tx_read = false;
  bool tx_write = false;
  bool pc_tag_valid = false;
  std::uint16_t pc_tag = 0;        // truncated first-access PC (hardware view)
  std::uint32_t first_pc = 0;      // full first-access PC (ground truth)
  std::uint64_t last_use = 0;      // LRU timestamp
  std::int32_t log_pos = -1;       // position in the speculative-line log

  bool speculative() const { return tx_read || tx_write; }
};

struct CacheGeometry {
  std::uint32_t size_bytes;
  std::uint32_t ways;
  std::uint32_t sets() const { return size_bytes / kLineBytes / ways; }
};

/// L1 data cache: full per-line metadata.
class L1Cache {
 public:
  explicit L1Cache(const CacheGeometry& g);

  /// Returns the line's slot if present (state != I).
  L1Line* find(Addr line);
  const L1Line* find(Addr line) const;

  /// Chooses a victim slot in `line`'s set: an invalid way if any, else the
  /// LRU way, preferring non-speculative lines over speculative ones.
  /// Never returns null.
  L1Line* victim(Addr line);

  /// True if every way of `line`'s set holds a speculative line (insertion
  /// would force a capacity abort).
  bool set_full_of_speculative(Addr line) const;

  void touch(L1Line& l) { l.last_use = ++tick_; }

  /// Marks `l` transactionally read (or written); on its first speculative
  /// touch the line is appended to the speculative-line log. All speculative
  /// bits must be set through here so the log stays exact.
  void mark_speculative(L1Line& l, bool write) {
    if (!l.speculative()) {
      l.log_pos = static_cast<std::int32_t>(spec_log_.size());
      spec_log_.push_back(slot_of(l));
      if (spec_log_.size() > spec_log_hwm_) spec_log_hwm_ = spec_log_.size();
    }
    if (write)
      l.tx_write = true;
    else
      l.tx_read = true;
  }

  /// Clears one line's speculative state, compacting the log (O(1)
  /// swap-with-last). Safe to call on non-speculative lines.
  void clear_line_speculative(L1Line& l) {
    l.tx_read = l.tx_write = false;
    l.pc_tag_valid = false;
    if (l.log_pos < 0) return;
    const std::size_t pos = static_cast<std::size_t>(l.log_pos);
    const std::uint32_t last = spec_log_.back();
    spec_log_[pos] = last;
    lines_[last].log_pos = static_cast<std::int32_t>(pos);
    spec_log_.pop_back();
    l.log_pos = -1;
  }

  /// Invokes `fn(L1Line&)` on every speculative line in slot (set-major)
  /// order — the exact order a full tag-array sweep would visit them — then
  /// clears all speculative state and empties the log. `fn` sees each line
  /// with its transactional bits still set and must not touch the log.
  template <typename Fn>
  void drain_speculative(Fn&& fn) {
    std::sort(spec_log_.begin(), spec_log_.end());
    for (const std::uint32_t idx : spec_log_) {
      L1Line& l = lines_[idx];
      fn(l);
      l.tx_read = l.tx_write = false;
      l.pc_tag_valid = false;
      l.log_pos = -1;
    }
    spec_log_.clear();
#ifndef NDEBUG
    // Differential cross-check against the pre-log implementation: a full
    // sweep must agree that no speculative line survived the drain.
    for (const L1Line& l : lines_)
      ST_CHECK_MSG(!l.speculative(),
                   "speculative line missed by the speculative-line log");
#endif
  }

  /// Invokes `fn(const L1Line&)` on every speculative line in slot order
  /// without clearing anything. Sorts the log in place (a host-side
  /// reordering only; positions are repaired).
  template <typename Fn>
  void for_each_speculative_ordered(Fn&& fn) {
    sort_log();
    for (const std::uint32_t idx : spec_log_) fn(lines_[idx]);
  }

  /// Invokes `fn(L1Line&)` on every speculative line in slot order without
  /// clearing speculative state or the log. `fn` may change coherence state
  /// but must not touch the speculative bits or the log.
  template <typename Fn>
  void for_each_speculative_mut(Fn&& fn) {
    sort_log();
    for (const std::uint32_t idx : spec_log_) fn(lines_[idx]);
  }

  /// Number of currently speculative lines — O(1) via the log.
  std::size_t speculative_line_count() const { return spec_log_.size(); }

  /// Largest read/write-set footprint (in lines) seen so far.
  std::size_t spec_log_high_water() const { return spec_log_hwm_; }

  /// Aborts the process unless the log and the tag array agree: every
  /// logged slot is speculative, every speculative slot is logged at its
  /// recorded position, and the log holds no duplicates.
  void check_log_invariants() const;

  /// Invoke `fn(L1Line&)` on every valid line.
  template <typename Fn>
  void for_each_valid(Fn&& fn) {
    for (auto& l : lines_)
      if (l.state != Coh::I) fn(l);
  }

  /// Invoke `fn(const L1Line&)` on every valid line.
  template <typename Fn>
  void for_each_valid(Fn&& fn) const {
    for (const auto& l : lines_)
      if (l.state != Coh::I) fn(l);
  }

  /// Invoke `fn(const L1Line&)` on every slot, valid or not. Differential
  /// sweeps need this: speculative marks outlive coherence validity on a
  /// victim stamped by a cross-core abort (they drain when the victim
  /// itself aborts).
  template <typename Fn>
  void for_each_slot(Fn&& fn) const {
    for (const auto& l : lines_) fn(l);
  }

  std::uint32_t sets() const { return sets_; }
  std::uint32_t ways() const { return ways_; }

 private:
  std::uint32_t set_of(Addr line) const {
    return static_cast<std::uint32_t>(line_index(line)) & (sets_ - 1);
  }
  std::uint32_t slot_of(const L1Line& l) const {
    return static_cast<std::uint32_t>(&l - lines_.data());
  }

  /// Sorts the log into slot order and repairs the lines' log positions.
  void sort_log() {
    std::sort(spec_log_.begin(), spec_log_.end());
    for (std::size_t p = 0; p < spec_log_.size(); ++p)
      lines_[spec_log_[p]].log_pos = static_cast<std::int32_t>(p);
  }

  std::uint32_t sets_;
  std::uint32_t ways_;
  std::vector<L1Line> lines_;       // sets_ * ways_, set-major
  std::vector<std::uint32_t> mru_;  // per-set most-recently-hit way
  std::vector<std::uint32_t> spec_log_;  // slots of speculative lines
  std::size_t spec_log_hwm_ = 0;
  std::uint64_t tick_ = 0;
};

/// Tag-only cache used to model L2/L3 hit latency. Presence is tracked with
/// LRU replacement; no coherence state is needed at these levels because the
/// directory is authoritative.
class TagCache {
 public:
  explicit TagCache(const CacheGeometry& g);

  /// Looks up `line`; if absent, inserts it (evicting LRU). Returns whether
  /// it was a hit before the insertion.
  bool access(Addr line);

  bool contains(Addr line) const;

 private:
  struct Slot {
    Addr line = 0;
    bool valid = false;
    std::uint64_t last_use = 0;
  };
  std::uint32_t set_of(Addr line) const {
    return static_cast<std::uint32_t>(line_index(line)) & (sets_ - 1);
  }

  std::uint32_t sets_;
  std::uint32_t ways_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> mru_;  // per-set most-recently-hit way
  std::uint64_t tick_ = 0;
};

}  // namespace st::sim
