// Shard-boundary edge cases: an event landing exactly on the window
// horizon, zero-delay cross-shard hops (lookahead collapses to the
// fallback slice and the re-drain fixpoint carries correctness), a window
// far wider than the true lookahead, and the degenerate single-shard
// topology. All must match the serial engine bit-for-bit. The engine runs
// on the calling thread, so its counters must not depend on the pool
// width either.

#include <gtest/gtest.h>

#include "../support/fixtures.hpp"
#include "lina/des/engine.hpp"
#include "lina/exec/thread_pool.hpp"

namespace lina::des {
namespace {

using lina::testing::shared_internet;
using topology::AsId;

const sim::ForwardingFabric& fabric() {
  static const sim::ForwardingFabric instance(shared_internet());
  return instance;
}

AsId edge(std::size_t i) { return shared_internet().edge_ases()[i]; }

PacketModel basic_model(const sim::ForwardingFabric& f,
                        double interval_ms = 20.0) {
  PacketModel model(f, sim::SimArchitecture::kIndirection);
  SessionParams p;
  p.correspondent = edge(3);
  p.schedule = {{0.0, edge(40)}, {300.0, edge(41)}, {600.0, edge(42)}};
  p.interval_ms = interval_ms;
  p.duration_ms = 900.0;
  model.add_session(p);
  SessionParams q;
  q.correspondent = edge(7);
  q.schedule = {{0.0, edge(60)}};
  q.interval_ms = interval_ms;
  q.duration_ms = 900.0;
  model.add_session(q);
  return model;
}

/// Sessions whose correspondents and mobiles sit in different metros, so
/// packets keep crossing shard boundaries while every shard also has
/// dense local emissions.
PacketModel cross_metro_model() {
  PacketModel model(fabric(), sim::SimArchitecture::kIndirection);
  for (std::size_t i = 0; i < 6; ++i) {
    SessionParams p;
    p.correspondent = edge(i * 11);
    p.schedule = {{0.0, edge(60 + i * 7)}, {400.0, edge(20 + i * 9)}};
    p.interval_ms = 15.0;
    p.duration_ms = 1200.0;
    model.add_session(p);
  }
  return model;
}

TEST(DesEdgeCaseTest, EventExactlyAtWindowHorizon) {
  // interval == window width, emissions start at 0: packet k's emit lands
  // exactly at k * window_ms, i.e. precisely on the window horizon. The
  // conservative rule is strict-less-than: a horizon-exact event belongs
  // to the *next* window, and the digest must not care either way.
  const double window = 8.0;
  PacketModel model = basic_model(fabric(), window);
  const RunStats serial = run_serial(model);
  for (const std::size_t shards : {4u, 16u}) {
    const ShardMap map = ShardMap::from_topology(shared_internet(), shards);
    EngineConfig config;
    config.shard_count = shards;
    config.window_ms = window;
    ShardedEngine engine(model, map, config);
    const RunStats stats = engine.run();
    EXPECT_EQ(stats.digest, serial.digest) << "shards=" << shards;
    EXPECT_EQ(stats.events, serial.events);
    EXPECT_GT(stats.windows, 1u);
  }
}

TEST(DesEdgeCaseTest, ZeroDelayCrossShardHops) {
  // A fabric where every link has zero delay: the auto lookahead is zero,
  // the engine falls back to its minimum positive slice, and every
  // cross-shard hop lands *inside* the still-open window. Only the
  // re-drain fixpoint keeps such hops executing at their exact timestamp.
  sim::FabricConfig zero;
  zero.per_hop_ms = 0.0;
  zero.inflation = 0.0;
  zero.min_link_ms = 0.0;
  const sim::ForwardingFabric flat(shared_internet(), zero);
  ASSERT_EQ(flat.link_delay_ms(edge(3), shared_internet()
                                            .graph()
                                            .links(edge(3))
                                            .front()
                                            .neighbor),
            0.0);
  PacketModel model = basic_model(flat);
  const RunStats serial = run_serial(model);
  for (const std::size_t shards : {4u, 16u}) {
    const ShardMap map = ShardMap::from_topology(shared_internet(), shards);
    EngineConfig config;
    config.shard_count = shards;
    ShardedEngine engine(model, map, config);
    const RunStats stats = engine.run();
    EXPECT_EQ(stats.digest, serial.digest) << "shards=" << shards;
    EXPECT_EQ(stats.events, serial.events);
    // Zero-delay handoffs must have forced at least one extra
    // intra-window pass somewhere.
    EXPECT_GT(stats.handoffs, 0u);
    EXPECT_GT(stats.redrain_passes, 0u);
  }
}

TEST(DesEdgeCaseTest, SingleShardDegenerateTopology) {
  PacketModel model = basic_model(fabric());
  const RunStats serial = run_serial(model);
  const ShardMap map = ShardMap::from_topology(shared_internet(), 1);
  EngineConfig config;
  config.shard_count = 1;
  ShardedEngine engine(model, map, config);
  const RunStats stats = engine.run();
  EXPECT_EQ(stats.digest, serial.digest);
  EXPECT_EQ(stats.events, serial.events);
  // One shard: every hop is shard-local, nothing ever crosses a mailbox.
  EXPECT_EQ(stats.handoffs, 0u);
}

TEST(DesEdgeCaseTest, MoreShardsThanMetrosStillExact) {
  // Shard count far above the metro-anchor count leaves some shards
  // permanently empty; the window loop must not stall or drop events.
  PacketModel model = basic_model(fabric());
  const RunStats serial = run_serial(model);
  const ShardMap map = ShardMap::from_topology(shared_internet(), 64);
  EngineConfig config;
  config.shard_count = 64;
  ShardedEngine engine(model, map, config);
  const RunStats stats = engine.run();
  EXPECT_EQ(stats.digest, serial.digest);
  EXPECT_EQ(stats.events, serial.events);
}

TEST(DesEdgeCaseTest, OversizedWindowRedrainsAndMatchesSerial) {
  // window_ms far above the true minimum cross-shard delay: a cross-shard
  // hop emitted early in a window lands inside the same still-open window,
  // so only the re-drain fixpoint keeps it at its exact timestamp.
  PacketModel model = cross_metro_model();
  const RunStats serial = run_serial(model);
  ASSERT_GT(serial.digest.delivered, 0u);
  for (const std::size_t shards : {4u, 16u}) {
    const ShardMap map = ShardMap::from_topology(shared_internet(), shards);
    EngineConfig config;
    config.shard_count = shards;
    config.window_ms = 50.0;
    ShardedEngine engine(model, map, config);
    const RunStats stats = engine.run();
    EXPECT_EQ(stats.digest, serial.digest) << "shards=" << shards;
    EXPECT_EQ(stats.events, serial.events);
    EXPECT_GT(stats.redrain_passes, 0u)
        << "oversized window failed to land a handoff inside its window";
    EXPECT_GT(stats.handoffs, 0u);
    EXPECT_GT(stats.bundles, 0u);
  }
}

TEST(DesEdgeCaseTest, RunStatsIgnorePoolWidth) {
  // The engine never touches the lina::exec pool, so every RunStats field
  // — not just the digest — is the same whatever the default pool width.
  struct ThreadCountGuard {
    ~ThreadCountGuard() { exec::set_default_threads(0); }
  } guard;
  PacketModel model = cross_metro_model();
  const ShardMap map = ShardMap::from_topology(shared_internet(), 4);
  for (const double window : {0.0, 50.0}) {
    EngineConfig config;
    config.shard_count = 4;
    config.window_ms = window;
    RunStats runs[2];
    const std::size_t threads[2] = {1, 8};
    for (int i = 0; i < 2; ++i) {
      exec::set_default_threads(threads[i]);
      runs[i] = ShardedEngine(model, map, config).run();
    }
    EXPECT_EQ(runs[0].digest, runs[1].digest) << "window=" << window;
    EXPECT_EQ(runs[0].events, runs[1].events);
    EXPECT_EQ(runs[0].windows, runs[1].windows);
    EXPECT_EQ(runs[0].redrain_passes, runs[1].redrain_passes);
    EXPECT_EQ(runs[0].handoffs, runs[1].handoffs);
    EXPECT_EQ(runs[0].bundles, runs[1].bundles);
    EXPECT_EQ(runs[0].lookahead_ms, runs[1].lookahead_ms);
    EXPECT_EQ(runs[0].shard_events, runs[1].shard_events);
    EXPECT_EQ(runs[0].shard_imbalance, runs[1].shard_imbalance);
  }
}

}  // namespace
}  // namespace lina::des
