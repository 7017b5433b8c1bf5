#pragma once

// Out-of-core packet replay: sessions stream out of a lina::trace shard
// set in bounded user batches; each batch becomes a PacketModel and runs
// through its own sharded engine (or the serial reference), and the
// per-batch digests fold commutatively, so the combined digest is
// invariant across batch size, shard count, and thread count.
//
// Parallelism is across batches, not inside them: batch b is one
// exec::parallel_map task that opens its own trace stream at user
// b * batch_users (skipping whole shards by their header counts), streams
// its users one at a time into a PacketModel, drops the stream, and runs
// the model on its own engine on that pool thread. Per-batch results fold
// on the caller in batch order. Peak memory is, per pool thread, one
// shard's user blocks while a batch decodes, then one compact session
// model and its engine — never a decoded batch, no matter how many users
// the set holds.

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
  /// Per-engine-shard event totals summed across batches (empty for the
  /// serial reference).
  std::vector<std::uint64_t> shard_events;
  /// max/mean of shard_events (1.0 = balanced; 0 when serial or empty).
  double shard_imbalance = 0.0;
};

/// Streams every user of `set` through the packet engine. Throws on the
/// calling thread on a config the replay (batch_users == 0), the model or
/// the engine rejects: std::out_of_range when the correspondent, a replica
/// or a fault of `failures` names an AS outside the graph,
/// std::invalid_argument otherwise. No batch is still running when it
/// does.
[[nodiscard]] PacketReplayStats replay_packets_streamed(
    const sim::ForwardingFabric& fabric, const trace::ShardSet& set,
    const PacketReplayConfig& config);

}  // namespace lina::des
