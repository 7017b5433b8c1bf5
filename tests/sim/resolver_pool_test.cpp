#include "lina/sim/resolver_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "../support/fixtures.hpp"
#include "lina/sim/failure_plan.hpp"
#include "lina/sim/session.hpp"

namespace lina::sim {
namespace {

using lina::testing::shared_internet;
using topology::AsId;

const ForwardingFabric& fabric() {
  static const ForwardingFabric instance(shared_internet());
  return instance;
}

std::vector<AsId> replicas(std::size_t count) {
  return ResolverPool::metro_placement(shared_internet(), count);
}

TEST(ResolverPoolTest, Validation) {
  EXPECT_THROW(ResolverPool(fabric(), {}), std::invalid_argument);
  EXPECT_THROW(ResolverPool(fabric(), {1u << 20}), std::out_of_range);
}

TEST(ResolverPoolTest, MetroPlacementDistinct) {
  const auto placed = replicas(8);
  EXPECT_EQ(placed.size(), 8u);
  EXPECT_EQ(std::set<AsId>(placed.begin(), placed.end()).size(), 8u);
}

TEST(ResolverPoolTest, MetroPlacementZeroCountIsEmpty) {
  EXPECT_TRUE(replicas(0).empty());
}

TEST(ResolverPoolTest, MetroPlacementCapsAtAnnouncingAses) {
  // Asking for more replicas than there are announcing ASes must terminate
  // and return only distinct announcing ASes, not loop or repeat.
  const std::size_t available = shared_internet().edge_ases().size();
  const auto placed = replicas(available + 10);
  EXPECT_LE(placed.size(), available);
  EXPECT_GT(placed.size(), 0u);
  EXPECT_EQ(std::set<AsId>(placed.begin(), placed.end()).size(),
            placed.size());
  for (const AsId as : placed) {
    const auto& edges = shared_internet().edge_ases();
    EXPECT_NE(std::find(edges.begin(), edges.end(), as), edges.end());
  }
}

TEST(ResolverPoolTest, DuplicateReplicasDeduplicated) {
  const auto base = replicas(3);
  const ResolverPool pool(
      fabric(), {base[0], base[1], base[0], base[2], base[1]});
  ASSERT_EQ(pool.replicas().size(), 3u);
  EXPECT_EQ(pool.replicas()[0], base[0]);
  EXPECT_EQ(pool.replicas()[1], base[1]);
  EXPECT_EQ(pool.replicas()[2], base[2]);
}

TEST(ResolverPoolTest, SingleReplicaUpdateCostsExactlyOneMessage) {
  // A pool of one has no relays to send: a move costs the device->replica
  // message alone, for a one-replica GNS and for single resolution alike.
  SessionConfig config;
  config.correspondent = shared_internet().edge_ases()[0];
  config.schedule = {{0.0, shared_internet().edge_ases()[10]},
                     {1000.0, shared_internet().edge_ases()[20]}};
  config.duration_ms = 2000.0;
  config.resolver_ttl_ms = 5000.0;  // no periodic lookups in-window
  config.resolver_replicas = replicas(1);
  config.resolver_as = config.resolver_replicas.front();
  for (const auto arch : {SimArchitecture::kReplicatedResolution,
                          SimArchitecture::kNameResolution}) {
    SCOPED_TRACE(sim_architecture_name(arch));
    EXPECT_EQ(simulate_session(fabric(), arch, config).control_messages, 1u);
  }
}

TEST(ResolverPoolTest, ReplicaIndexRoundTripsAndThrows) {
  const ResolverPool pool(fabric(), replicas(4));
  for (std::size_t i = 0; i < pool.replicas().size(); ++i) {
    EXPECT_EQ(pool.replica_index(pool.replicas()[i]), i);
  }
  AsId absent = 0;
  while (std::find(pool.replicas().begin(), pool.replicas().end(), absent) !=
         pool.replicas().end()) {
    ++absent;
  }
  EXPECT_THROW((void)pool.replica_index(absent), std::invalid_argument);
}

TEST(ResolverPoolTest, NearestLiveReplicaFailsOverToSecondNearest) {
  const ResolverPool pool(fabric(), replicas(6));
  const AsId client = shared_internet().edge_ases()[0];
  const AsId nearest = pool.nearest_replica(client);

  FailurePlan plan;
  plan.resolver_crash(nearest, 0.0, 1000.0);

  const auto live = pool.nearest_live_replica(client, plan, 500.0);
  ASSERT_TRUE(live.has_value());
  EXPECT_NE(*live, nearest);
  // It must be the best among the survivors.
  const double live_delay = *fabric().path_delay_ms(client, *live);
  for (const AsId replica : pool.replicas()) {
    if (replica == nearest) continue;
    EXPECT_LE(live_delay, *fabric().path_delay_ms(client, replica) + 1e-9);
  }
  // After the repair the preferred replica is live again.
  EXPECT_EQ(pool.nearest_live_replica(client, plan, 1500.0), nearest);
}

TEST(ResolverPoolTest, NearestLiveReplicaNoneWhenAllDown) {
  const auto base = replicas(3);
  const ResolverPool pool(fabric(), base);
  FailurePlan plan;
  for (const AsId replica : base) plan.resolver_crash(replica, 0.0, 1000.0);
  EXPECT_FALSE(pool.nearest_live_replica(shared_internet().edge_ases()[0],
                                         plan, 500.0)
                   .has_value());
}

TEST(ResolverPoolTest, NearestReplicaIsNearest) {
  const ResolverPool pool(fabric(), replicas(6));
  for (std::size_t i = 0; i < 40; i += 7) {
    const AsId client = shared_internet().edge_ases()[i];
    const AsId nearest = pool.nearest_replica(client);
    const double d = *fabric().path_delay_ms(client, nearest);
    for (const AsId replica : pool.replicas()) {
      EXPECT_LE(d, *fabric().path_delay_ms(client, replica) + 1e-9);
    }
  }
}

TEST(ResolverPoolTest, MoreReplicasCutLookupLatency) {
  const auto few = replicas(1);
  const auto many = replicas(12);
  // Placement is a prefix: the larger pool keeps every smaller-pool site,
  // so its nearest replica is never farther.
  ASSERT_TRUE(std::equal(few.begin(), few.end(), many.begin()));
  const ResolverPool small(fabric(), few);
  const ResolverPool large(fabric(), many);
  const auto nearest_delay = [](const ResolverPool& pool, AsId client) {
    return *fabric().path_delay_ms(client, pool.nearest_replica(client));
  };
  double small_sum = 0.0, large_sum = 0.0;
  for (std::size_t i = 0; i < 60; i += 3) {
    const AsId client = shared_internet().edge_ases()[i];
    const double small_delay = nearest_delay(small, client);
    const double large_delay = nearest_delay(large, client);
    EXPECT_LE(large_delay, small_delay);
    small_sum += small_delay;
    large_sum += large_delay;
  }
  EXPECT_LT(large_sum, small_sum);
}

TEST(ResolverPoolTest, NearestLiveReplicaUnderEmptyPlanIsNearest) {
  const ResolverPool pool(fabric(), replicas(6));
  for (std::size_t i = 0; i < 40; i += 7) {
    const AsId client = shared_internet().edge_ases()[i];
    EXPECT_EQ(pool.nearest_live_replica(client, no_failures(), 100.0),
              pool.nearest_replica(client));
  }
}

TEST(ReplicatedResolutionTest, RequiresReplicas) {
  SessionConfig config;
  config.correspondent = shared_internet().edge_ases()[0];
  config.schedule = {{0.0, shared_internet().edge_ases()[10]}};
  EXPECT_THROW((void)simulate_session(
                   fabric(), SimArchitecture::kReplicatedResolution, config),
               std::invalid_argument);
}

TEST(ReplicatedResolutionTest, StationaryFullDelivery) {
  SessionConfig config;
  config.correspondent = shared_internet().edge_ases()[0];
  config.schedule = {{0.0, shared_internet().edge_ases()[10]}};
  config.duration_ms = 2000.0;
  config.packet_interval_ms = 50.0;
  config.resolver_replicas = replicas(6);
  const auto stats = simulate_session(
      fabric(), SimArchitecture::kReplicatedResolution, config);
  EXPECT_EQ(stats.packets_delivered, stats.packets_sent);
  EXPECT_NEAR(stats.stretch.quantile(0.5), 1.0, 1e-6);
}

TEST(ReplicatedResolutionTest, UpdatesCostOneMessagePerReplica) {
  SessionConfig config;
  config.correspondent = shared_internet().edge_ases()[0];
  config.schedule = {{0.0, shared_internet().edge_ases()[10]},
                     {1000.0, shared_internet().edge_ases()[20]}};
  config.duration_ms = 2000.0;
  config.resolver_ttl_ms = 5000.0;  // no periodic lookups in-window
  config.resolver_replicas = replicas(6);
  const auto stats = simulate_session(
      fabric(), SimArchitecture::kReplicatedResolution, config);
  EXPECT_EQ(stats.control_messages, 6u);  // one move x 6 replicas
}

TEST(ScopedNameBasedTest, ScopeCutsControlCost) {
  SessionConfig config;
  config.correspondent = shared_internet().edge_ases()[0];
  const auto local =
      shared_internet().edge_ases_near(topology::metro_anchors()[0], 3);
  config.schedule = {{0.0, local[0]}, {1000.0, local[1]},
                     {2000.0, local[2]}};
  config.duration_ms = 4000.0;
  config.packet_interval_ms = 20.0;

  const auto global =
      simulate_session(fabric(), SimArchitecture::kNameBased, config);
  config.update_scope_hops = 2;
  const auto scoped =
      simulate_session(fabric(), SimArchitecture::kNameBased, config);

  // The synthetic AS graph is shallow (diameter ~6), so even a 2-hop scope
  // reaches a sizable neighborhood; the claim is a substantial cut, not an
  // order of magnitude.
  EXPECT_LT(scoped.control_messages, global.control_messages / 2);
  // Metro-local mobility: delivery stays high because packets routed to
  // the initial attachment pass through the updated scope.
  EXPECT_GT(scoped.delivery_ratio(), 0.7);
}

TEST(ScopedNameBasedTest, ScopedStretchAtMostModest) {
  SessionConfig config;
  config.correspondent = shared_internet().edge_ases()[0];
  const auto local =
      shared_internet().edge_ases_near(topology::metro_anchors()[1], 2);
  config.schedule = {{0.0, local[0]}, {1500.0, local[1]}};
  config.duration_ms = 3000.0;
  config.update_scope_hops = 3;
  const auto stats =
      simulate_session(fabric(), SimArchitecture::kNameBased, config);
  // Packets may detour via the initial attachment's region: bounded
  // stretch, not collapse.
  EXPECT_GT(stats.delivery_ratio(), 0.7);
  EXPECT_LT(stats.stretch.quantile(0.5), 3.0);
}

}  // namespace
}  // namespace lina::sim
