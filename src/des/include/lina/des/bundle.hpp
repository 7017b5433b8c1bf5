#pragma once

// Cache-line-aligned cross-shard event bundles (DESIGN.md §4j).
//
// PR 9's mailboxes were plain std::vector<EventRecord>: every cross-shard
// handoff was one push_back, and the barrier drain walked record-at-a-time
// through whatever the vector growth policy left in memory. A BundleChain
// packs the same records into fixed-size 1 KiB bundles (21 × 48-byte
// records plus a count word, aligned to the cache line so a bundle never
// straddles a line it doesn't own), recycled from a per-chain arena across
// windows — once a chain has seen its peak window, the steady state
// allocates nothing. The drain side hands records over bundle-at-a-time,
// prefetching the next bundle while the current one is consumed, which is
// what cuts the barrier-adjacent time at shard counts >= 4.
//
// A chain is appended to while its source shard runs a window pass and
// drained into its destination shard at the window barrier, both on the
// engine's one thread — no locks, never concurrent.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "lina/des/event.hpp"

#if defined(__GNUC__) || defined(__clang__)
#define LINA_DES_PREFETCH(addr) __builtin_prefetch((addr), 0, 3)
#else
#define LINA_DES_PREFETCH(addr) ((void)0)
#endif

namespace lina::des {

/// One fixed-size batch of event records. 21 records × 48 B + the count
/// word pads to exactly 1 KiB (16 cache lines) under alignas(64), so
/// bundles tile the arena with no partial lines shared between bundles.
struct alignas(64) EventBundle {
  static constexpr std::size_t kRecords = 21;

  std::uint32_t count = 0;
  EventRecord records[kRecords];

  [[nodiscard]] bool full() const { return count == kRecords; }
};

static_assert(sizeof(EventBundle) == 1024,
              "bundles must tile the arena in whole cache lines");
static_assert(alignof(EventBundle) == 64,
              "bundles must start on a cache-line boundary");

/// An append-only chain of bundles backing one (src, dst) mailbox. The
/// backing vector is the arena: drain() resets the cursor but keeps every
/// bundle allocated, so windows after the high-water mark recycle bundles
/// instead of allocating.
class BundleChain {
 public:
  /// Writer side: append one record, opening a (recycled) bundle when the
  /// tail bundle is full.
  void append(const EventRecord& record) {
    if (used_ == 0 || bundles_[used_ - 1].full()) {
      if (used_ == bundles_.size()) {
        bundles_.emplace_back();
      } else {
        bundles_[used_].count = 0;
      }
      ++used_;
    }
    EventBundle& bundle = bundles_[used_ - 1];
    bundle.records[bundle.count++] = record;
    ++records_;
  }

  [[nodiscard]] bool empty() const { return records_ == 0; }
  /// Records appended since the last drain.
  [[nodiscard]] std::size_t pending_records() const { return records_; }
  /// Sealed bundles the next drain will hand over.
  [[nodiscard]] std::size_t pending_bundles() const { return used_; }
  /// Arena high-water mark (bundles ever allocated; never shrinks).
  [[nodiscard]] std::size_t capacity_bundles() const {
    return bundles_.size();
  }

  /// Reader side: visit every pending record in append order,
  /// bundle-at-a-time with the next bundle prefetched, then reset the
  /// chain (keeping the arena). Returns the number of records drained.
  template <typename Fn>
  std::size_t drain(Fn&& fn) {
    const std::size_t drained = records_;
    for (std::size_t i = 0; i < used_; ++i) {
      if (i + 1 < used_) LINA_DES_PREFETCH(&bundles_[i + 1]);
      const EventBundle& bundle = bundles_[i];
      for (std::uint32_t j = 0; j < bundle.count; ++j) fn(bundle.records[j]);
    }
    used_ = 0;
    records_ = 0;
    return drained;
  }

 private:
  std::vector<EventBundle> bundles_;
  std::size_t used_ = 0;     // bundles holding pending records
  std::size_t records_ = 0;  // pending records across used bundles
};

}  // namespace lina::des
