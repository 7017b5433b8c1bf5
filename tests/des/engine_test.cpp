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
  p.schedule = {{0.0, edge(1)}, {100.0, edge(2)}, {100.0, edge(3)}};
  EXPECT_THROW(model.add_session(p), std::invalid_argument);

  p = good;
  p.interval_ms = 0.0;
  EXPECT_THROW(model.add_session(p), std::invalid_argument);

  p = good;
  p.duration_ms = -1.0;
  EXPECT_THROW(model.add_session(p), std::invalid_argument);

  p = good;
  p.correspondent = static_cast<AsId>(1u << 30);  // out of range
  EXPECT_THROW(model.add_session(p), std::out_of_range);

  p = good;
  p.home_as = static_cast<AsId>(1u << 30);
  EXPECT_THROW(model.add_session(p), std::out_of_range);

  PacketModel resolution(fabric(), sim::SimArchitecture::kNameResolution);
  p = good;  // no resolver_as: defaults to the correspondent's AS
  EXPECT_EQ(resolution.add_session(p), 0u);
  p.resolver_as = edge(5);
  EXPECT_EQ(resolution.add_session(p), 1u);

  PacketModel replicated(fabric(),
                         sim::SimArchitecture::kReplicatedResolution);
  p = good;  // no replicas
  EXPECT_THROW(replicated.add_session(p), std::invalid_argument);
  p.resolver_replicas = {edge(5), static_cast<AsId>(1u << 30)};
  EXPECT_THROW(replicated.add_session(p), std::out_of_range);
  p.resolver_replicas = {edge(5), edge(6)};
  EXPECT_EQ(replicated.add_session(p), 0u);
}

TEST(DesModelTest, RejectedSessionLeavesModelUnchanged) {
  // Every check of add_session runs before the model changes, so a model
  // built from s1, rejected sessions and s2 equals one built from s1, s2.
  SessionParams s1;
  s1.correspondent = edge(0);
  s1.schedule = {{0.0, edge(1)}, {3000.0, edge(2)}};
  s1.resolver_replicas = {edge(4), edge(5)};
  SessionParams s2 = s1;
  s2.correspondent = edge(3);
  s2.schedule = {{0.0, edge(2)}, {2000.0, edge(6)}, {4500.0, edge(1)}};
  // Each is rejected by a check that comes after the schedule's.
  SessionParams bad_replica = s1;
  bad_replica.schedule = {{0.0, edge(7)}, {1000.0, edge(8)}};
  bad_replica.resolver_replicas = {edge(4), static_cast<AsId>(1u << 30)};
  SessionParams no_replicas = bad_replica;
  no_replicas.resolver_replicas.clear();
  SessionParams bad_ttl = s1;
  bad_ttl.resolver_ttl_ms = 0.0;
  SessionParams bad_home = s1;
  bad_home.home_as = static_cast<AsId>(1u << 30);

  PacketModel with_reject(fabric(),
                          sim::SimArchitecture::kReplicatedResolution);
  with_reject.add_session(s1);
  const std::size_t steps = with_reject.step_count();
  EXPECT_EQ(steps, s1.schedule.size());
  EXPECT_THROW(with_reject.add_session(bad_replica), std::out_of_range);
  EXPECT_EQ(with_reject.step_count(), steps);
  EXPECT_THROW(with_reject.add_session(no_replicas), std::invalid_argument);
  EXPECT_EQ(with_reject.step_count(), steps);
  EXPECT_THROW(with_reject.add_session(bad_ttl), std::invalid_argument);
  EXPECT_EQ(with_reject.step_count(), steps);
  EXPECT_THROW(with_reject.add_session(bad_home), std::out_of_range);
  EXPECT_EQ(with_reject.step_count(), steps);
  with_reject.add_session(s2);
  EXPECT_EQ(with_reject.step_count(), steps + s2.schedule.size());
  PacketModel clean(fabric(), sim::SimArchitecture::kReplicatedResolution);
  clean.add_session(s1);
  clean.add_session(s2);

  EXPECT_EQ(with_reject.session_count(), 2u);
  EXPECT_EQ(with_reject.session_count(), clean.session_count());
  const RunStats a = run_serial(with_reject);
  const RunStats b = run_serial(clean);
  EXPECT_GT(a.digest.delivered, 0u);
  EXPECT_EQ(a.digest, b.digest);
}

TEST(DesModelTest, RejectsFailurePlanOutsideGraph) {
  // Such a fault would never apply: the model rejects it, as
  // sim::simulate_session does.
  const AsId outside =
      static_cast<AsId>(shared_internet().graph().as_count());
  sim::FailurePlan plan;
  plan.resolver_crash(outside, 100.0, 200.0);
  EXPECT_THROW(PacketModel(fabric(), sim::SimArchitecture::kNameResolution,
                           &plan),
               std::out_of_range);
  sim::FailurePlan inside;
  inside.resolver_crash(edge(5), 100.0, 200.0);
  EXPECT_NO_THROW(PacketModel(fabric(),
                              sim::SimArchitecture::kNameResolution,
                              &inside));
}

TEST(DesModelTest, ResolverDefaultsToCorrespondent) {
  // Same default as sim::simulate_session: a name-resolution session
  // without resolver_as resolves at its correspondent's AS.
  SessionParams p;
  p.correspondent = edge(0);
  p.schedule = {{0.0, edge(1)}, {3000.0, edge(2)}, {6500.0, edge(3)}};
  PacketModel defaulted(fabric(), sim::SimArchitecture::kNameResolution);
  defaulted.add_session(p);
  p.resolver_as = p.correspondent;
  PacketModel explicit_resolver(fabric(),
                                sim::SimArchitecture::kNameResolution);
  explicit_resolver.add_session(p);
  const RunStats a = run_serial(defaulted);
  const RunStats b = run_serial(explicit_resolver);
  EXPECT_GT(a.digest.delivered, 0u);
  EXPECT_EQ(a.digest.delivered, b.digest.delivered);
  EXPECT_EQ(a.digest, b.digest);
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
