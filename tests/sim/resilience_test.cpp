// Resilience suite: fault injection through the fabric, the four
// architecture simulators, and the content-session simulator. Runs under
// the `resilience` ctest label (tier-1 includes it, sanitizer preset
// filters on it).

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "../support/fixtures.hpp"
#include "../support/session_totals.hpp"
#include "lina/sim/content_session.hpp"
#include "lina/sim/failure_plan.hpp"
#include "lina/sim/resolver_pool.hpp"
#include "lina/sim/session.hpp"
#include "lina/topology/graph.hpp"

namespace lina::sim {
namespace {

using lina::testing::shared_internet;
using topology::AsId;

const ForwardingFabric& fabric() {
  static const ForwardingFabric instance(shared_internet());
  return instance;
}

AsId edge(std::size_t i) { return shared_internet().edge_ases()[i]; }

/// The policy route as the sequence of ASes from `from` to `to`.
std::vector<AsId> policy_route(AsId from, AsId to) {
  std::vector<AsId> route{from};
  AsId current = from;
  while (current != to) {
    current = fabric().hop_toward(current, to)->next;
    route.push_back(current);
  }
  return route;
}

SessionConfig stationary_config() {
  SessionConfig config;
  config.correspondent = edge(0);
  config.schedule = {{0.0, edge(25)}};
  config.packet_interval_ms = 50.0;
  config.duration_ms = 10000.0;
  return config;
}

void expect_identical(const SessionStats& a, const SessionStats& b) {
  EXPECT_EQ(a.packets_sent, b.packets_sent);
  EXPECT_EQ(a.packets_delivered, b.packets_delivered);
  EXPECT_EQ(a.packets_lost, b.packets_lost);
  EXPECT_EQ(a.control_messages, b.control_messages);
  EXPECT_EQ(a.control_retries, b.control_retries);
  EXPECT_EQ(a.packets_sent_during_failure, b.packets_sent_during_failure);
  EXPECT_EQ(a.packets_delivered_during_failure,
            b.packets_delivered_during_failure);
  // Bit-identical sample sets, not just close: the fault layer must be
  // zero-cost when disabled.
  EXPECT_EQ(a.delivery_delay_ms.sorted_samples(),
            b.delivery_delay_ms.sorted_samples());
  EXPECT_EQ(a.stretch.sorted_samples(), b.stretch.sorted_samples());
  EXPECT_EQ(a.outage_ms.sorted_samples(), b.outage_ms.sorted_samples());
  EXPECT_TRUE(a.recovery_ms.empty());
  EXPECT_TRUE(b.recovery_ms.empty());
}

TEST(ResilienceRegressionTest, EmptyPlanIsBitIdenticalToNoPlan) {
  const auto local =
      shared_internet().edge_ases_near(topology::metro_anchors()[0], 4);
  SessionConfig config;
  config.correspondent = edge(0);
  config.schedule = {{0.0, local[0]},
                     {2000.0, local[1]},
                     {4000.0, local[2]},
                     {6000.0, local[3]}};
  config.packet_interval_ms = 20.0;
  config.duration_ms = 8000.0;
  config.resolver_ttl_ms = 150.0;
  config.resolver_replicas = ResolverPool::metro_placement(shared_internet(), 6);

  // A missing plan is the shared empty plan, so the comparison below runs
  // one code path twice. What pins that path to the failure-free
  // simulator is each architecture's totals, recorded from the simulator
  // when it still kept a separate code path for sessions without faults.
  const std::pair<SimArchitecture, lina::testing::SessionTotals> pinned[] = {
      {SimArchitecture::kIndirection,
       {400, 398, 3, 0, 0x1.29fde74e1ea1ep+16, 0x1.4dfdfbe2e7c2p+12,
        0x1.3f6c47b2803cp+6}},
      {SimArchitecture::kNameResolution,
       {400, 349, 56, 0, 0x1.725a6377627b5p+15, 0x1.5cfffffffffa4p+8,
        0x1.01c1583b7a622p+10}},
      {SimArchitecture::kNameBased,
       {400, 397, 864, 0, 0x1.b064c65a5e659p+15, 0x1.9a8ea27125635p+9,
        0x1.f4de6302061fp+7}},
      {SimArchitecture::kReplicatedResolution,
       {400, 336, 71, 0, 0x1.6c5928c35ee36p+15, 0x1.4ffffffffffacp+8,
        0x1.42c1583b7a622p+10}},
  };
  const FailurePlan empty_plan;
  for (const auto& [arch, totals] : pinned) {
    SCOPED_TRACE(sim_architecture_name(arch));
    SessionConfig with_plan = config;
    with_plan.failures = &empty_plan;
    const SessionStats without = simulate_session(fabric(), arch, config);
    expect_identical(without, simulate_session(fabric(), arch, with_plan));
    lina::testing::expect_totals(without, totals);
  }
}

TEST(ResilienceRegressionTest, EmptyPlanContentSessionBitIdentical) {
  ContentSessionConfig config;
  config.consumer = edge(0);
  config.publisher_schedule = {{0.0, edge(40)}, {5000.0, edge(41)}};
  config.duration_ms = 10000.0;

  ContentSessionConfig with_plan = config;
  const FailurePlan empty_plan;
  with_plan.failures = &empty_plan;

  const auto a = simulate_content_session(fabric(), config);
  const auto b = simulate_content_session(fabric(), with_plan);
  EXPECT_EQ(a.interests_sent, b.interests_sent);
  EXPECT_EQ(a.satisfied_from_cache, b.satisfied_from_cache);
  EXPECT_EQ(a.satisfied_from_publisher, b.satisfied_from_publisher);
  EXPECT_EQ(a.unsatisfied, b.unsatisfied);
  EXPECT_EQ(a.retrieval_delay_ms.sorted_samples(),
            b.retrieval_delay_ms.sorted_samples());
}

TEST(FailureAwareFabricTest, ReroutesAroundDeadTransitAs) {
  const AsId from = edge(0);
  const AsId to = edge(25);
  const auto route = policy_route(from, to);
  ASSERT_GE(route.size(), 3u) << "need a transit AS to kill";
  const AsId dead = route[route.size() / 2];

  FailurePlan plan;
  plan.as_outage(dead, 1000.0, 2000.0);

  // Outside the window: identical to the base queries.
  EXPECT_EQ(fabric().path_delay_ms(from, to, plan, 500.0),
            fabric().path_delay_ms(from, to));
  EXPECT_EQ(fabric().hop_toward(from, to, plan, 2500.0),
            fabric().hop_toward(from, to));

  // Inside: a detour exists and never traverses the dead AS.
  ASSERT_TRUE(fabric().policy_path_impaired(from, to, plan, 1500.0));
  const auto detour_delay = fabric().path_delay_ms(from, to, plan, 1500.0);
  ASSERT_TRUE(detour_delay.has_value());
  EXPECT_GT(*detour_delay, 0.0);
  AsId current = from;
  std::size_t guard = 0;
  while (current != to) {
    const auto hop = fabric().hop_toward(current, to, plan, 1500.0);
    ASSERT_TRUE(hop.has_value());
    EXPECT_NE(hop->next, dead);
    current = hop->next;
    ASSERT_LT(++guard, shared_internet().graph().as_count());
  }
}

TEST(FailureAwareFabricTest, DeadEndpointIsUnroutable) {
  const AsId from = edge(0);
  const AsId to = edge(25);
  FailurePlan plan;
  plan.as_outage(to, 0.0, 1000.0);
  EXPECT_FALSE(fabric().path_delay_ms(from, to, plan, 500.0).has_value());
  EXPECT_FALSE(fabric().hop_toward(from, to, plan, 500.0).has_value());
  EXPECT_TRUE(fabric().path_delay_ms(from, to, plan, 1500.0).has_value());
}

TEST(FailureAwareFabricTest, RoutesAroundCutLastLink) {
  // A multihomed destination stub: cutting the link its best route enters
  // through forces a valley-free detour via another provider. (Cutting a
  // single-homed AS's only uplink is *correctly* unroutable under policy
  // reconvergence, so the scenario needs a stub with >= 2 providers.)
  const auto& graph = shared_internet().graph();
  const AsId from = edge(0);
  AsId to = topology::kNoNode;
  for (const AsId as : shared_internet().edge_ases()) {
    if (as != from && graph.tier(as) == topology::AsTier::kStub &&
        graph.degree(as) >= 2) {
      to = as;
      break;
    }
  }
  ASSERT_NE(to, topology::kNoNode);
  const auto route = policy_route(from, to);
  ASSERT_GE(route.size(), 2u);
  const AsId penultimate = route[route.size() - 2];
  FailurePlan plan;
  plan.link_cut(penultimate, to, 0.0, 1000.0);

  ASSERT_TRUE(fabric().path_delay_ms(from, to, plan, 500.0).has_value());
  // Hop-by-hop forwarding reaches the destination without ever crossing
  // the cut adjacency.
  AsId current = from;
  std::size_t guard = 0;
  while (current != to) {
    const auto hop = fabric().hop_toward(current, to, plan, 500.0);
    ASSERT_TRUE(hop.has_value());
    EXPECT_FALSE(current == penultimate && hop->next == to);
    current = hop->next;
    ASSERT_LT(++guard, 300u);
  }
}

TEST(ResilienceSessionTest, IndirectionLosesPacketsForFullHomeOutage) {
  SessionConfig config = stationary_config();
  config.home_as = edge(100);  // far home: all packets triangle through it
  FailurePlan plan;
  plan.home_agent_crash(*config.home_as, 2000.0, 6000.0);
  config.failures = &plan;

  const auto stats =
      simulate_session(fabric(), SimArchitecture::kIndirection, config);
  // Packets sent during the outage die at the dead agent for the whole
  // window (no failover target exists); delivery resumes after repair.
  EXPECT_EQ(stats.packets_sent, 200u);
  EXPECT_GE(stats.packets_sent_during_failure, 78u);
  EXPECT_GT(stats.failure_loss_fraction(), 0.9);
  EXPECT_LT(stats.delivery_ratio(), 0.7);
  EXPECT_GT(stats.delivery_ratio(), 0.5);  // outside the window all deliver
  ASSERT_FALSE(stats.recovery_ms.empty());
  // Recovery is fast: the first packet sent after the repair gets through.
  EXPECT_LT(stats.recovery_ms.quantile(0.5), 1000.0);
}

TEST(ResilienceSessionTest, IndirectionRegistrationRetriesUntilRepair) {
  SessionConfig config = stationary_config();
  config.home_as = edge(100);
  config.schedule.push_back({3000.0, edge(26)});  // move during the outage
  FailurePlan plan;
  plan.home_agent_crash(*config.home_as, 2000.0, 6000.0);
  config.failures = &plan;

  const auto stats =
      simulate_session(fabric(), SimArchitecture::kIndirection, config);
  // The in-outage registration must be retransmitted with backoff until
  // the agent recovers; then delivery resumes to the new attachment.
  EXPECT_GT(stats.control_retries, 0u);
  EXPECT_GT(stats.control_messages, 1u);  // original + retries
  ASSERT_FALSE(stats.recovery_ms.empty());
  // Packets delivered after the repair (the tail of the session).
  EXPECT_GT(stats.packets_delivered, 100u);
}

TEST(ResilienceSessionTest, SingleResolverCrashCausesStaleLoss) {
  SessionConfig config = stationary_config();
  config.resolver_as = edge(50);
  config.resolver_ttl_ms = 300.0;
  config.schedule.push_back({3000.0, edge(26)});  // move during the outage

  SessionConfig healthy = config;
  FailurePlan plan;
  plan.resolver_crash(edge(50), 2000.0, 8000.0);
  config.failures = &plan;

  const auto broken =
      simulate_session(fabric(), SimArchitecture::kNameResolution, config);
  const auto baseline =
      simulate_session(fabric(), SimArchitecture::kNameResolution, healthy);
  // With the resolver dead across the move, the correspondent keeps
  // streaming to the stale attachment: much worse than healthy.
  EXPECT_LT(broken.delivery_ratio(), baseline.delivery_ratio() - 0.2);
  EXPECT_GT(broken.control_retries, 0u);  // lookups and the registration retry
  // After the repair the next lookup refreshes the cache and delivery
  // resumes.
  ASSERT_FALSE(broken.recovery_ms.empty());
}

TEST(ResilienceSessionTest, ReplicatedResolutionFailsOverWithinOneBackoff) {
  const auto replicas = ResolverPool::metro_placement(shared_internet(), 6);
  const ResolverPool pool(fabric(), replicas);

  SessionConfig config = stationary_config();
  config.resolver_replicas = replicas;
  config.resolver_ttl_ms = 300.0;
  config.schedule.push_back({3000.0, edge(26)});  // move during the outage

  // Kill the correspondent's preferred (nearest) replica across the move.
  const AsId preferred = pool.nearest_replica(config.correspondent);
  FailurePlan plan;
  plan.resolver_crash(preferred, 2000.0, 8000.0);
  config.failures = &plan;

  const auto stats = simulate_session(
      fabric(), SimArchitecture::kReplicatedResolution, config);
  // The first post-crash lookup times out, retries once with backoff, and
  // the retry lands on the next-nearest live replica — so the correspondent
  // keeps tracking the device and delivery stays high.
  EXPECT_GT(stats.control_retries, 0u);
  EXPECT_GT(stats.delivery_ratio(), 0.85);
  ASSERT_FALSE(stats.outage_ms.empty());
  // Post-move outage bounded by TTL + one backoff + round trips, far less
  // than the 5-second overlap of outage and move.
  EXPECT_LT(stats.outage_ms.max(), 2000.0);
}

TEST(ResilienceSessionTest, ReplicationBeatsSingleResolverUnderCrash) {
  const auto replicas = ResolverPool::metro_placement(shared_internet(), 6);
  const ResolverPool pool(fabric(), replicas);
  const AsId preferred = pool.nearest_replica(edge(0));

  SessionConfig config = stationary_config();
  config.resolver_ttl_ms = 300.0;
  config.schedule.push_back({3000.0, edge(26)});
  FailurePlan plan;
  plan.resolver_crash(preferred, 2000.0, 8000.0);
  config.failures = &plan;

  SessionConfig single = config;
  single.resolver_as = preferred;
  SessionConfig replicated = config;
  replicated.resolver_replicas = replicas;

  const auto single_stats =
      simulate_session(fabric(), SimArchitecture::kNameResolution, single);
  const auto replicated_stats = simulate_session(
      fabric(), SimArchitecture::kReplicatedResolution, replicated);
  EXPECT_GT(replicated_stats.delivery_ratio(),
            single_stats.delivery_ratio() + 0.1);
}

TEST(ResilienceSessionTest, NameBasedDegradesOnlyByStretchUnderAsOutage) {
  SessionConfig config = stationary_config();
  const auto route = policy_route(config.correspondent,
                                  config.schedule.front().as);
  ASSERT_GE(route.size(), 3u);
  FailurePlan plan;
  plan.as_outage(route[route.size() / 2], 2000.0, 8000.0);
  config.failures = &plan;

  const auto stats =
      simulate_session(fabric(), SimArchitecture::kNameBased, config);
  // No control element to crash: packets detour around the dead AS, so
  // delivery stays (near-)full — only the path degrades.
  EXPECT_GT(stats.delivery_ratio(), 0.95);
  EXPECT_GT(stats.packets_delivered_during_failure, 100u);
  ASSERT_FALSE(stats.stretch_degraded.empty());
  EXPECT_GT(stats.stretch_degraded.quantile(0.5), 1.0);
  EXPECT_TRUE(stats.recovery_ms.empty() ||
              stats.recovery_ms.quantile(0.5) < 500.0);
}

TEST(ResilienceSessionTest, UpdateLossDelaysConvergenceButRetriesRecover) {
  const auto local =
      shared_internet().edge_ases_near(topology::metro_anchors()[0], 3);
  SessionConfig config;
  config.correspondent = edge(0);
  config.schedule = {{0.0, local[0]}, {2000.0, local[1]}, {4000.0, local[2]}};
  config.packet_interval_ms = 20.0;
  config.duration_ms = 8000.0;
  config.resolver_as = edge(50);
  config.resolver_ttl_ms = 300.0;

  FailurePlan plan(99);
  plan.update_loss(0.9, 0.0, 8000.0);
  config.failures = &plan;

  const auto stats =
      simulate_session(fabric(), SimArchitecture::kNameResolution, config);
  // 90% of control messages vanish; exponential-backoff retransmission
  // still converges every registration and most lookups eventually.
  EXPECT_GT(stats.control_retries, 10u);
  EXPECT_GT(stats.delivery_ratio(), 0.5);
}

TEST(ResilienceContentTest, PublisherOutageDegradesUncachedTail) {
  ContentSessionConfig config;
  config.consumer = edge(0);
  config.publisher_schedule = {{0.0, edge(40)}};
  config.duration_ms = 16000.0;
  config.cache_capacity = 64;

  ContentSessionConfig broken = config;
  FailurePlan plan;
  plan.as_outage(edge(40), 8000.0, 16000.0);
  broken.failures = &plan;

  const auto healthy_stats = simulate_content_session(fabric(), config);
  const auto broken_stats = simulate_content_session(fabric(), broken);
  // The popular head keeps being served from on-path caches through the
  // outage; the uncached tail is lost — reachability drops but does not
  // collapse (§8: caching helps, yet "does not suffice").
  EXPECT_LT(broken_stats.reachability(), healthy_stats.reachability());
  EXPECT_GT(broken_stats.satisfied_from_cache, 0u);
  EXPECT_GT(broken_stats.reachability(), 0.2);
}

}  // namespace
}  // namespace lina::sim
