// The acceptance gate of DESIGN.md §4i: the sharded engine's
// delivered-packet digest must equal the serial run_serial work-list
// reference bit-for-bit for every architecture, at shard counts
// {1, 4, 16}, with and without an active FailurePlan. DesOrderTest adds
// the time-ordered heap reference (tests/support/time_ordered_run.hpp),
// so three execution orders of the same events are compared.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "../support/fixtures.hpp"
#include "../support/time_ordered_run.hpp"
#include "lina/des/engine.hpp"

namespace lina::des {
namespace {

using lina::testing::shared_internet;
using topology::AsId;

const sim::ForwardingFabric& fabric() {
  static const sim::ForwardingFabric instance(shared_internet());
  return instance;
}

AsId edge(std::size_t i) { return shared_internet().edge_ases()[i]; }

std::vector<AsId> metro_locals(std::size_t anchor, std::size_t k) {
  return shared_internet().edge_ases_near(topology::metro_anchors()[anchor],
                                          k);
}

/// A small mixed population: stationary, metro-local roamers, and one
/// cross-metro mover, so every belief path (stale resolver answers,
/// wavefront re-aiming, triangle re-addressing) fires. The first two
/// sessions flood `scope_hops` far (global by default); the mover always
/// floods 3 hops.
void add_population(PacketModel& model,
                    std::size_t scope_hops = SIZE_MAX) {
  const std::vector<AsId> near0 = metro_locals(0, 4);
  const std::vector<AsId> near1 = metro_locals(1, 3);
  {
    SessionParams p;
    p.correspondent = edge(0);
    p.schedule = {{0.0, edge(25)}};
    p.interval_ms = 40.0;
    p.duration_ms = 1600.0;
    p.resolver_as = edge(10);
    p.resolver_replicas = {edge(10), edge(30), edge(50)};
    p.update_scope_hops = scope_hops;
    model.add_session(p);
  }
  {
    SessionParams p;
    p.correspondent = edge(1);
    p.schedule = {{0.0, near0[0]},
                  {400.0, near0[1]},
                  {800.0, near0[2]},
                  {1200.0, near0[3]}};
    p.interval_ms = 25.0;
    p.duration_ms = 1600.0;
    p.resolver_ttl_ms = 120.0;
    p.resolver_as = edge(10);
    p.resolver_replicas = {edge(10), edge(30), edge(50)};
    p.update_scope_hops = scope_hops;
    model.add_session(p);
  }
  {
    SessionParams p;
    p.correspondent = edge(2);
    p.schedule = {{0.0, near0[1]}, {700.0, near1[0]}, {1300.0, near1[1]}};
    p.interval_ms = 30.0;
    p.duration_ms = 1500.0;
    p.resolver_ttl_ms = 90.0;
    p.resolver_as = edge(30);
    p.resolver_replicas = {edge(30), edge(50)};
    p.update_scope_hops = 3;  // §8 scoped flooding
    model.add_session(p);
  }
}

sim::FailurePlan faulty_plan() {
  sim::FailurePlan plan(7);
  // A transit outage and a link cut mid-run impair the data plane; a
  // resolver crash and a home-agent crash hit the control processes the
  // resolution / indirection architectures depend on.
  plan.as_outage(shared_internet().graph().ases_of_tier(
                     topology::AsTier::kTier2)[0],
                 300.0, 700.0);
  plan.link_cut(edge(25), shared_internet()
                              .graph()
                              .links(edge(25))
                              .front()
                              .neighbor,
                500.0, 900.0);
  plan.resolver_crash(edge(10), 200.0, 600.0);
  plan.home_agent_crash(edge(25), 800.0, 1100.0);
  return plan;
}

constexpr sim::SimArchitecture kAll[] = {
    sim::SimArchitecture::kIndirection,
    sim::SimArchitecture::kNameResolution,
    sim::SimArchitecture::kReplicatedResolution,
    sim::SimArchitecture::kNameBased,
};

TEST(DesIdentityTest, ShardedMatchesSerialAcrossMatrix) {
  for (const bool with_faults : {false, true}) {
    const sim::FailurePlan plan = faulty_plan();
    for (const sim::SimArchitecture arch : kAll) {
      PacketModel model(fabric(), arch, with_faults ? &plan : nullptr);
      add_population(model);
      const RunStats serial = run_serial(model);
      ASSERT_GT(serial.digest.sent, 0u);
      ASSERT_GT(serial.digest.delivered, 0u);
      EXPECT_EQ(serial.digest.sent,
                serial.digest.delivered + serial.digest.lost);
      for (const std::size_t shards : {1u, 4u, 16u}) {
        const ShardMap map =
            ShardMap::from_topology(shared_internet(), shards);
        EngineConfig config;
        config.shard_count = shards;
        ShardedEngine engine(model, map, config);
        const RunStats sharded = engine.run();
        EXPECT_EQ(sharded.digest, serial.digest)
            << "arch=" << static_cast<int>(arch) << " shards=" << shards
            << " faults=" << with_faults;
        EXPECT_EQ(sharded.events, serial.events);
        EXPECT_EQ(sharded.shard_events.size(), shards);
        std::uint64_t across = 0;
        for (const std::uint64_t count : sharded.shard_events) {
          across += count;
        }
        EXPECT_EQ(across, sharded.events);
        if (sharded.events > 0) {
          EXPECT_GE(sharded.shard_imbalance, 1.0 - 1e-9);
        }
      }
    }
  }
}

TEST(DesIdentityTest, DigestIsThreadAndShardInvariantButFaultSensitive) {
  const sim::FailurePlan plan = faulty_plan();
  PacketModel healthy(fabric(), sim::SimArchitecture::kIndirection);
  PacketModel faulted(fabric(), sim::SimArchitecture::kIndirection, &plan);
  add_population(healthy);
  add_population(faulted);
  // Faults must change the digest (otherwise the with-faults arm of the
  // matrix proves nothing).
  EXPECT_NE(run_serial(healthy).digest, run_serial(faulted).digest);
}

// run_serial drains a LIFO work-list in no time order; the reference
// pops a min-heap in (time, FIFO) order. Equal digests and event counts
// across the two orders (and the 4-shard engine's windowed one) fail the
// day a handler starts to depend on the order events run in.
TEST(DesOrderTest, WorkListMatchesTimeOrderedHeap) {
  const sim::FailurePlan plan = faulty_plan();
  const ShardMap map = ShardMap::from_topology(shared_internet(), 4);
  EngineConfig config;
  config.shard_count = 4;
  struct Variant {
    sim::SimArchitecture arch;
    std::size_t scope_hops;
  };
  constexpr Variant variants[] = {
      {sim::SimArchitecture::kIndirection, SIZE_MAX},
      {sim::SimArchitecture::kNameResolution, SIZE_MAX},
      {sim::SimArchitecture::kReplicatedResolution, SIZE_MAX},
      {sim::SimArchitecture::kNameBased, SIZE_MAX},
      {sim::SimArchitecture::kNameBased, 3},  // §8 scoped flooding
  };
  for (const bool with_faults : {false, true}) {
    for (const Variant& variant : variants) {
      PacketModel model(fabric(), variant.arch,
                        with_faults ? &plan : nullptr);
      add_population(model, variant.scope_hops);
      const RunStats work_list = run_serial(model);
      const RunStats time_ordered = testref::run_time_ordered(model);
      const RunStats sharded = ShardedEngine(model, map, config).run();
      const std::string where =
          "arch=" + std::to_string(static_cast<int>(variant.arch)) +
          " scope=" + std::to_string(variant.scope_hops) +
          " faults=" + std::to_string(with_faults);
      ASSERT_GT(time_ordered.digest.delivered, 0u) << where;
      EXPECT_EQ(work_list.digest, time_ordered.digest) << where;
      EXPECT_EQ(work_list.events, time_ordered.events) << where;
      EXPECT_EQ(sharded.digest, time_ordered.digest) << where;
      EXPECT_EQ(sharded.events, time_ordered.events) << where;
    }
  }
}

}  // namespace
}  // namespace lina::des
