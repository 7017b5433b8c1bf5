// Engine basics: deterministic shard mapping, model validation, digest
// algebra, and the out-of-core trace replay path (serial vs sharded,
// batch-size invariance).

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

#include "../support/fixtures.hpp"
#include "../trace/trace_test_util.hpp"
#include "lina/des/replay.hpp"
#include "lina/mobility/device_workload.hpp"
#include "lina/trace/streaming.hpp"

namespace lina::des {
namespace {

using lina::testing::shared_internet;
using topology::AsId;

const sim::ForwardingFabric& fabric() {
  static const sim::ForwardingFabric instance(shared_internet());
  return instance;
}

AsId edge(std::size_t i) { return shared_internet().edge_ases()[i]; }

TEST(ShardMapTest, DeterministicAndBounded) {
  const ShardMap a = ShardMap::from_topology(shared_internet(), 8);
  const ShardMap b = ShardMap::from_topology(shared_internet(), 8);
  EXPECT_EQ(a.shard_count(), 8u);
  const std::size_t as_count = shared_internet().graph().as_count();
  for (AsId as = 0; as < as_count; ++as) {
    EXPECT_LT(a.shard_of(as), 8u);
    EXPECT_EQ(a.shard_of(as), b.shard_of(as)) << "as=" << as;
  }
}

TEST(ShardMapTest, NearestAnchorBreaksTiesTowardLowestIndex) {
  // The documented tie-break (engine.hpp): strict less-than comparison,
  // so among equidistant anchors the lowest index wins. Pinned here so
  // shard assignment can never drift across platforms or refactors —
  // a drift would silently re-home every AS and change which links count
  // as cross-shard (and therefore the auto lookahead window).
  const topology::GeoPoint at{10.0, 20.0};
  const topology::GeoPoint same{48.0, 2.0};
  const topology::GeoPoint far{-30.0, 150.0};
  {
    // Bitwise-identical anchors: a guaranteed exact distance tie.
    const topology::GeoPoint anchors[] = {same, same, same};
    EXPECT_EQ(ShardMap::nearest_anchor(at, anchors), 0u);
  }
  {
    const topology::GeoPoint anchors[] = {far, same, same};
    EXPECT_EQ(ShardMap::nearest_anchor(at, anchors), 1u);
  }
  {
    // A duplicated best candidate: the later copy computes the exact
    // same distance and must NOT displace the earlier one.
    const topology::GeoPoint near{12.0, 21.0};
    const topology::GeoPoint anchors[] = {far, near, far, near};
    EXPECT_EQ(ShardMap::nearest_anchor(at, anchors), 1u)
        << "equidistant candidates must keep the first";
  }
  // And a strictly closer later anchor must still win.
  {
    const topology::GeoPoint close{10.0, 20.5};
    const topology::GeoPoint anchors[] = {same, far, close};
    EXPECT_EQ(ShardMap::nearest_anchor(at, anchors), 2u);
  }
}

TEST(ShardMapTest, ZeroShardsClampsToOne) {
  const ShardMap map = ShardMap::from_topology(shared_internet(), 0);
  EXPECT_EQ(map.shard_count(), 1u);
}

TEST(DesModelTest, ValidatesSessions) {
  PacketModel model(fabric(), sim::SimArchitecture::kIndirection);
  SessionParams good;
  good.correspondent = edge(0);
  good.schedule = {{0.0, edge(1)}};
  EXPECT_EQ(model.add_session(good), 0u);

  SessionParams p = good;
  p.schedule.clear();
  EXPECT_THROW(model.add_session(p), std::invalid_argument);

  p = good;
  p.schedule = {{5.0, edge(1)}};  // first step must be at 0
  EXPECT_THROW(model.add_session(p), std::invalid_argument);

  p = good;
  p.schedule = {{0.0, edge(1)}, {200.0, edge(2)}, {100.0, edge(3)}};
  EXPECT_THROW(model.add_session(p), std::invalid_argument);

  p = good;
  p.interval_ms = 0.0;
  EXPECT_THROW(model.add_session(p), std::invalid_argument);

  p = good;
  p.duration_ms = -1.0;
  EXPECT_THROW(model.add_session(p), std::invalid_argument);

  p = good;
  p.correspondent = static_cast<AsId>(1u << 30);  // out of range
  EXPECT_THROW(model.add_session(p), std::invalid_argument);

  PacketModel resolution(fabric(), sim::SimArchitecture::kNameResolution);
  p = good;  // no resolver_as
  EXPECT_THROW(resolution.add_session(p), std::invalid_argument);
  p.resolver_as = edge(5);
  EXPECT_EQ(resolution.add_session(p), 0u);

  PacketModel replicated(fabric(),
                         sim::SimArchitecture::kReplicatedResolution);
  p = good;  // no replicas
  EXPECT_THROW(replicated.add_session(p), std::invalid_argument);
  p.resolver_replicas = {edge(5), edge(6)};
  EXPECT_EQ(replicated.add_session(p), 0u);
}

TEST(DesModelTest, InitialEventShape) {
  PacketModel model(fabric(), sim::SimArchitecture::kIndirection);
  SessionParams p;
  p.correspondent = edge(0);
  p.schedule = {{0.0, edge(1)}};
  p.start_ms = 125.0;
  model.add_session(p);
  const EventRecord first = model.initial_event(0);
  EXPECT_EQ(first.type, EventType::kEmit);
  EXPECT_DOUBLE_EQ(first.time_ms, 125.0);
  EXPECT_EQ(first.session, 0u);
  EXPECT_EQ(first.packet, 0u);
  EXPECT_EQ(first.at, edge(0));
}

TEST(DesModelTest, SerialAccounting) {
  PacketModel model(fabric(), sim::SimArchitecture::kIndirection);
  SessionParams p;
  p.correspondent = edge(0);
  p.schedule = {{0.0, edge(1)}};
  p.interval_ms = 20.0;
  p.duration_ms = 900.0;  // emits at 0, 20, ..., 880 -> 45 packets
  model.add_session(p);
  const RunStats stats = run_serial(model);
  EXPECT_EQ(stats.digest.sent, 45u);
  EXPECT_EQ(stats.digest.sent, stats.digest.delivered + stats.digest.lost);
  EXPECT_GE(stats.digest.hop_events, stats.digest.delivered);
  EXPECT_GT(stats.events, stats.digest.sent);
}

TEST(DesEngineTest, RejectsBadWindow) {
  PacketModel model(fabric(), sim::SimArchitecture::kIndirection);
  const ShardMap map = ShardMap::from_topology(shared_internet(), 4);
  EngineConfig config;
  config.window_ms = -1.0;
  EXPECT_THROW(ShardedEngine(model, map, config), std::invalid_argument);
  config.window_ms = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(ShardedEngine(model, map, config), std::invalid_argument);
}

TEST(DesEngineTest, EmptyModelRunsToNothing) {
  PacketModel model(fabric(), sim::SimArchitecture::kIndirection);
  const ShardMap map = ShardMap::from_topology(shared_internet(), 4);
  ShardedEngine engine(model, map);
  const RunStats stats = engine.run();
  EXPECT_EQ(stats.events, 0u);
  EXPECT_EQ(stats.digest, DeliveryDigest{});
  EXPECT_EQ(stats.windows, 0u);
}

TEST(DesDigestTest, CombineIsCommutative) {
  DeliveryDigest a;
  a.add_delivered(1, 2, 30.0, 10.0, 5, 7);
  a.add_delivered(1, 3, 50.0, 30.0, 4, 7);
  DeliveryDigest b;
  b.add_delivered(2, 0, 12.0, 2.0, 3, 9);
  DeliveryDigest ab = a;
  ab.combine(b);
  DeliveryDigest ba = b;
  ba.combine(a);
  EXPECT_EQ(ab, ba);
  EXPECT_EQ(ab.fingerprint(), ba.fingerprint());
  EXPECT_NE(ab.fingerprint(), a.fingerprint());
}

TEST(DesReplayTest, StreamedReplayIdentityAcrossBatchAndShards) {
  // 12 users / 3 trace shards out of the shared workload; the digest must
  // be invariant across engine shard counts and batch sizes, and equal to
  // the serial reference.
  lina::testing::TempTraceDir dir("des-replay");
  mobility::DeviceWorkloadConfig workload;
  workload.user_count = 12;
  workload.days = 3;
  const mobility::DeviceWorkloadGenerator generator(shared_internet(),
                                                    workload);
  trace::StreamingWorkloadConfig stream;
  stream.users_per_shard = 5;
  const trace::ShardSet set =
      trace::StreamingWorkload(generator, stream).write_shards(dir.path());

  PacketReplayConfig config;
  config.architecture = sim::SimArchitecture::kReplicatedResolution;
  config.hours = 24.0;
  config.interval_ms = 400.0;
  config.correspondent = edge(0);
  config.replicas = {edge(1), edge(2), edge(3)};
  config.serial = true;
  const PacketReplayStats serial =
      replay_packets_streamed(fabric(), set, config);
  EXPECT_EQ(serial.sessions, 12u);
  EXPECT_GT(serial.digest.sent, 0u);

  config.serial = false;
  for (const std::size_t shards : {1u, 4u}) {
    for (const std::size_t batch : {3u, 12u}) {
      config.engine.shard_count = shards;
      config.batch_users = batch;
      const PacketReplayStats streamed =
          replay_packets_streamed(fabric(), set, config);
      EXPECT_EQ(streamed.digest, serial.digest)
          << "shards=" << shards << " batch=" << batch;
      EXPECT_EQ(streamed.sessions, serial.sessions);
      EXPECT_EQ(streamed.events, serial.events);
      EXPECT_EQ(streamed.shard_events.size(), shards);
    }
  }
}

}  // namespace
}  // namespace lina::des
