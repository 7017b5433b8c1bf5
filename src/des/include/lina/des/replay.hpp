#pragma once

// Out-of-core packet replay: sessions stream out of a lina::trace shard
// set in bounded user batches; each batch becomes a PacketModel and runs
// through its own sharded engine (or the serial reference), and the
// per-batch digests fold commutatively, so the combined digest is
// invariant across batch size, shard count, and thread count.
//
// Parallelism is across batches, not inside them: the calling thread
// decodes batches and builds their models in stream order, then runs a
// round of up to `engine.threads` models concurrently, each engine on
// one thread. Peak memory is one decoded batch on the calling thread plus
// at most `engine.threads` compact session models and their engines, no
// matter how many users the set holds.

#include <cstdint>
#include <vector>

#include "lina/des/engine.hpp"
#include "lina/trace/streaming.hpp"

namespace lina::des {

struct PacketReplayConfig {
  sim::SimArchitecture architecture = sim::SimArchitecture::kIndirection;
  /// Trace hours replayed per user (1 simulated second per trace hour).
  double hours = 24.0;
  double interval_ms = 1000.0;
  double resolver_ttl_ms = 200.0;
  /// Correspondent AS every session streams from.
  topology::AsId correspondent = 0;
  /// Resolver placement: the single resolver is replicas.front(); the
  /// replicated architecture uses the whole pool.
  std::vector<topology::AsId> replicas;
  std::size_t batch_users = 8192;
  /// `engine.threads` bounds how many batches run at once; each batch's
  /// engine itself runs single-threaded.
  EngineConfig engine;
  const sim::FailurePlan* failures = nullptr;
  /// Run the serial run_serial reference instead of the sharded
  /// engine (for identity gates).
  bool serial = false;
};

struct PacketReplayStats {
  DeliveryDigest digest;
  std::uint64_t sessions = 0;
  std::uint64_t events = 0;
  std::uint64_t windows = 0;
  std::uint64_t handoffs = 0;
  std::uint64_t batches = 0;
  std::uint64_t redrain_passes = 0;
  std::uint64_t bundles = 0;
  std::uint64_t rollbacks = 0;
  std::uint64_t rolled_back_events = 0;
  /// Per-engine-shard event totals summed across batches (empty for the
  /// serial reference).
  std::vector<std::uint64_t> shard_events;
  /// max/mean of shard_events (1.0 = balanced; 0 when serial or empty).
  double shard_imbalance = 0.0;
};

/// Streams every user of `set` through the packet engine. Throws
/// std::invalid_argument on the calling thread on a config the model or
/// engine rejects; no batch is still running when it does.
[[nodiscard]] PacketReplayStats replay_packets_streamed(
    const sim::ForwardingFabric& fabric, const trace::ShardSet& set,
    const PacketReplayConfig& config);

}  // namespace lina::des
