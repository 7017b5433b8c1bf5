#pragma once

// Sharded discrete-event engine with conservative time windows (DESIGN.md
// §4i/§4j).
//
// The event queue is split per AS region: every AS maps to a shard via a
// deterministic topology-derived mapping (nearest metro anchor, folded
// onto the shard count), so intra-metro forwarding stays shard-local and
// cross-shard traffic rides inter-metro links whose delay is the
// lookahead. Cross-shard records travel in cache-line-aligned bundles
// (lina/des/bundle.hpp) through per-(src,dst) mailboxes, sealed at window
// barriers and drained bundle-at-a-time with prefetch.
//
// Each window, the shards drain their own flat binary heap within
// [window_start, horizon) one after another, in shard order, on the
// calling thread; a handoff that lands *inside* the still-open window
// (possible only at zero lookahead, or with a window wider than the true
// lookahead) triggers the re-drain fixpoint, so every event executes at
// its exact timestamp before the window advances. Parallelism lives one
// level up: the streamed replay (lina/des/replay.hpp) runs whole batches,
// each with its own engine, concurrently.
//
// The result is the bit-identical DeliveryDigest of run_serial, which
// runs the same events in an unrelated (work-list) order — asserted by
// tests/des across all four architectures × shards {1,4,16}, ±
// FailurePlan.

#include <cstdint>
#include <span>
#include <vector>

#include "lina/des/bundle.hpp"
#include "lina/des/event.hpp"
#include "lina/des/model.hpp"
#include "lina/routing/synthetic_internet.hpp"
#include "lina/topology/geo.hpp"

namespace lina::des {

/// Deterministic AS -> shard mapping derived from the topology: each AS
/// joins the shard of its nearest metro anchor (anchor index modulo the
/// shard count), so a region's routers co-reside and the mapping is a
/// pure function of the AS graph — identical across runs, thread counts,
/// and processes.
class ShardMap {
 public:
  static ShardMap from_topology(const routing::SyntheticInternet& internet,
                                std::size_t shard_count);

  /// Index of the anchor nearest to `at` by great-circle distance.
  /// Tie-break rule (load-bearing for cross-platform shard stability,
  /// pinned by tests/des): the comparison is a strict less-than, so among
  /// equidistant anchors the LOWEST anchor index wins — a later anchor
  /// must be strictly closer to displace an earlier one.
  [[nodiscard]] static std::size_t nearest_anchor(
      const topology::GeoPoint& at,
      std::span<const topology::GeoPoint> anchors);

  [[nodiscard]] std::uint32_t shard_of(topology::AsId as) const {
    return shard_of_as_[as];
  }
  [[nodiscard]] std::size_t shard_count() const { return shard_count_; }

 private:
  std::vector<std::uint32_t> shard_of_as_;
  std::size_t shard_count_ = 1;
};

/// The one sync mode; an enum because perfbench/src/workloads.cpp names it.
enum class SyncMode : std::uint8_t {
  /// Never execute past the safe horizon; zero-lookahead fabrics fall
  /// back to fixed slices plus the re-drain fixpoint.
  kConservative,
};

struct EngineConfig {
  std::size_t shard_count = 16;
  /// Lookahead window width; 0 = auto (the minimum cross-shard link
  /// delay — the conservative safe horizon). When the topology admits
  /// zero-delay cross-shard hops the auto window falls back to a small
  /// positive slice and correctness is carried by the re-drain fixpoint.
  double window_ms = 0.0;
  SyncMode sync = SyncMode::kConservative;
};

/// What a run did. The digest is the bit-identity surface; the window /
/// handoff / bundle counters describe the engine's behaviour and vary
/// with the shard count and window.
struct RunStats {
  DeliveryDigest digest;
  std::uint64_t events = 0;
  std::uint64_t windows = 0;
  std::uint64_t redrain_passes = 0;  // extra passes of the re-drain fixpoint
  std::uint64_t handoffs = 0;        // records through cross-shard mailboxes
  std::uint64_t bundles = 0;         // sealed bundles drained at barriers
  double lookahead_ms = 0.0;
  /// Net events executed per shard (load-balance observability; sums to
  /// `events`).
  std::vector<std::uint64_t> shard_events;
  /// max(shard_events) / mean(shard_events): 1.0 = perfectly balanced,
  /// S = everything on one shard. 0 when no events ran.
  double shard_imbalance = 0.0;
};

class ShardedEngine {
 public:
  /// The model and map must outlive the engine. Throws
  /// std::invalid_argument if the config window is negative or NaN.
  ShardedEngine(const PacketModel& model, const ShardMap& map,
                EngineConfig config = {});

  /// Seeds every session's initial event and runs the window loop to
  /// completion on the calling thread; returns the combined digest and
  /// engine counters.
  RunStats run();

  /// The resolved lookahead (config window, or the auto-derived one).
  [[nodiscard]] double lookahead_ms() const { return lookahead_ms_; }

 private:
  /// Flat arena binary heap of event records ordered by (time, seq);
  /// seq is assigned on push, so equal-time local events pop FIFO.
  struct ShardQueue {
    std::vector<EventRecord> heap;
    std::uint64_t next_seq = 0;
    DeliveryDigest digest;
    std::uint64_t executed = 0;

    void push(EventRecord record);
    [[nodiscard]] bool empty() const { return heap.empty(); }
    [[nodiscard]] double top_time() const { return heap.front().time_ms; }
    EventRecord pop();
  };

  void seed_sessions();
  [[nodiscard]] double global_min_time() const;
  /// Fold per-shard digests/counters into `stats` and export lina.des.*
  /// metrics.
  void finish_stats(RunStats& stats) const;

  [[nodiscard]] std::uint32_t owner_shard(const EventRecord& record) const;
  [[nodiscard]] double auto_window_ms() const;

  const PacketModel* model_;
  const ShardMap* map_;
  EngineConfig config_;
  double lookahead_ms_ = 0.0;
  std::vector<ShardQueue> shards_;
  /// mailboxes_[src * S + dst]: bundled chain appended to while shard
  /// `src` runs its window pass, drained into shard `dst` at the barrier.
  std::vector<BundleChain> mailboxes_;
};

/// The serial reference: the same PacketModel driven through a LIFO
/// work-list of EventRecords. Events run in no time order — each handler
/// is pure (model.hpp), so the delivered multiset, and with it the digest
/// and the event count, is the same under any order. The sharded engine,
/// which runs every event at its time, must match it bit-for-bit.
/// Throws std::invalid_argument when a handler emits an event earlier
/// than the event being handled or at a non-finite time.
RunStats run_serial(const PacketModel& model);

}  // namespace lina::des
