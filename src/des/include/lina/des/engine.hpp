#pragma once

// Sharded parallel discrete-event engine, two sync modes (DESIGN.md
// §4i/§4j).
//
// The event queue is split per AS region: every AS maps to a shard via a
// deterministic topology-derived mapping (nearest metro anchor, folded
// onto the shard count), so intra-metro forwarding stays shard-local and
// cross-shard traffic rides inter-metro links whose delay is the
// lookahead. Cross-shard records travel in cache-line-aligned bundles
// (lina/des/bundle.hpp) through per-(src,dst) single-writer mailboxes,
// sealed at window barriers and drained bundle-at-a-time with prefetch.
//
// Conservative mode (PR 9): shards drain their own flat binary heap
// serially within [window_start, horizon); a handoff that lands *inside*
// the still-open window (possible only at zero lookahead) triggers the
// re-drain fixpoint, so every event executes at its exact timestamp
// before the window advances.
//
// Optimistic mode: shards execute speculatively past the horizon, keeping
// an undo log of processed records; cross-shard emissions are staged and
// released only once GVT (computed at the existing pool barriers) passes
// their emitting event, so rollback is purely shard-local. A straggler
// arrival below a shard's speculative clock rewinds the undo log past the
// straggler timestamp and replays (lina/des/optimistic.hpp).
//
// Both modes produce the bit-identical DeliveryDigest as the serial
// run_serial reference — asserted by tests/des across all four
// architectures × shards {1,4,16} × threads {1,8}, ± FailurePlan.

#include <cstdint>
#include <span>
#include <vector>

#include "lina/des/bundle.hpp"
#include "lina/des/event.hpp"
#include "lina/des/model.hpp"
#include "lina/des/optimistic.hpp"
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

/// How shards agree on time (DESIGN.md §4j).
enum class SyncMode : std::uint8_t {
  /// Never execute past the safe horizon; zero-lookahead fabrics fall
  /// back to fixed slices plus the re-drain fixpoint.
  kConservative,
  /// Execute speculatively past the horizon with undo-log rollback;
  /// cross-shard sends are held until GVT commits their emitter.
  kOptimistic,
};

struct EngineConfig {
  std::size_t shard_count = 16;
  /// Lookahead window width; 0 = auto (the minimum cross-shard link
  /// delay — the conservative safe horizon). When the topology admits
  /// zero-delay cross-shard hops the auto window falls back to a small
  /// positive slice and correctness is carried by the re-drain fixpoint
  /// (conservative) or rollback (optimistic).
  double window_ms = 0.0;
  /// lina::exec worker bound for the per-window shard fan-out (0 =
  /// exec::default_threads()). replay_packets_streamed reads it as the
  /// number of batches run at once instead, each batch's engine on one
  /// thread, so its memory bound is `threads` session models and engines
  /// plus the one batch being decoded.
  std::size_t threads = 0;
  /// Conservative barriers-every-window, or optimistic speculate-and-
  /// rollback. The digest is identical either way; only the barrier /
  /// rollback counters and the wall clock differ.
  SyncMode sync = SyncMode::kConservative;
  /// Optimistic only: how many lookahead windows past GVT a shard may
  /// speculate per pass. Larger values amortize more barriers but risk
  /// deeper rollbacks on low-delay cross-shard traffic.
  double speculation_windows = 4.0;
};

/// What a run did. The digest is the bit-identity surface; the window /
/// handoff / rollback counters describe the engine's behaviour and vary
/// with the shard count and sync mode (never with the thread count).
struct RunStats {
  DeliveryDigest digest;
  std::uint64_t events = 0;
  std::uint64_t windows = 0;
  std::uint64_t redrain_passes = 0;  // conservative zero-lookahead fixpoint
  std::uint64_t handoffs = 0;        // records through cross-shard mailboxes
  std::uint64_t bundles = 0;         // sealed bundles drained at barriers
  std::uint64_t rollbacks = 0;       // optimistic: straggler rollbacks
  std::uint64_t rolled_back_events = 0;  // optimistic: events undone+replayed
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
  /// std::invalid_argument if the config window is negative or NaN, or
  /// the speculation depth is not a positive finite number.
  ShardedEngine(const PacketModel& model, const ShardMap& map,
                EngineConfig config = {});

  /// Seeds every session's initial event and runs the configured sync
  /// mode to completion; returns the combined digest and engine counters.
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
    /// Append without restoring the heap property (rollback batches
    /// re-pushes and removals, then calls restore_heap() once).
    void append_raw(EventRecord record);
    void restore_heap();
    /// Remove one record matching `r` up to the seq tie-break (swap-pop;
    /// leaves the heap property broken — pair with restore_heap()).
    bool remove_match(const EventRecord& r);
    [[nodiscard]] bool empty() const { return heap.empty(); }
    [[nodiscard]] double top_time() const { return heap.front().time_ms; }
    EventRecord pop();
  };

  RunStats run_conservative();
  RunStats run_optimistic();  // src/optimistic.cpp

  /// Seeds initial events and returns the earliest seeded time.
  void seed_sessions();
  [[nodiscard]] double global_min_time() const;
  /// Undo every log entry newer than `straggler_ms` on shard `s`
  /// (subtract recomputed digest deltas, retract recomputed emissions
  /// from the heap and staging, re-push the records) and restore the
  /// heap. Returns the number of events undone.
  std::uint64_t rollback(std::size_t s, double straggler_ms);
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
  /// mailboxes_[src * S + dst]: bundled chain written only by the worker
  /// running shard `src` during a window pass (conservative) or the
  /// release step (optimistic), drained only by the worker running shard
  /// `dst` at the barrier — single writer, single reader, no locks.
  std::vector<BundleChain> mailboxes_;
  /// Optimistic only: per-(src,dst) speculative output staging and the
  /// per-shard undo logs / speculative clocks.
  std::vector<std::vector<StagedRecord>> staged_;
  std::vector<UndoLog> logs_;
  std::vector<double> clock_;
  /// Per-shard behaviour counters (filled by whichever mode ran).
  std::vector<std::uint64_t> received_;
  std::vector<std::uint64_t> bundles_;
  std::vector<std::uint64_t> rollbacks_;
  std::vector<std::uint64_t> rolled_back_;
};

/// The serial reference: the same PacketModel driven through one flat
/// min-heap of EventRecords, executing every event in global (time, FIFO)
/// order. Both sharded sync modes' digests must equal this one
/// bit-for-bit. Throws std::invalid_argument when a handler emits an
/// event before the current time or at a non-finite time.
RunStats run_serial(const PacketModel& model);

}  // namespace lina::des
