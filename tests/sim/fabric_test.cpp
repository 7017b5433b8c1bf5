#include "lina/sim/fabric.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <optional>
#include <stdexcept>

#include "../support/fixtures.hpp"
#include "lina/obs/metrics.hpp"
#include "lina/obs/registry.hpp"
#include "lina/routing/policy_routing.hpp"
#include "lina/sim/failure_plan.hpp"

namespace lina::sim {
namespace {

using lina::testing::shared_internet;
using topology::AsId;

const ForwardingFabric& fabric() {
  static const ForwardingFabric instance(shared_internet());
  return instance;
}

/// The default-config Internet (the one every bench routes over).
const ForwardingFabric& default_fabric() {
  static const routing::SyntheticInternet internet{
      routing::SyntheticInternetConfig{}};
  static const ForwardingFabric instance(internet);
  return instance;
}

/// What a hop-by-hop walk from `from` to `to` along `next` finds: the
/// link_delay_ms sum in walk order and the hop count (nullopt when a hop
/// is missing). `loop` is set when the walk never arrives.
struct Walk {
  std::optional<double> delay_ms;
  std::optional<std::size_t> hops;
  bool loop = false;
};

template <typename Next>
Walk walk(const ForwardingFabric& f, AsId from, AsId to, Next&& next) {
  Walk result;
  double total = 0.0;
  std::size_t hops = 0;
  AsId current = from;
  while (current != to) {
    const std::optional<AsId> hop = next(current);
    if (!hop.has_value()) return result;
    total += f.link_delay_ms(current, *hop);
    current = *hop;
    if (++hops > f.internet().graph().as_count()) {
      result.loop = true;
      return result;
    }
  }
  result.delay_ms = total;
  result.hops = hops;
  return result;
}

/// The next AS of hop_toward's answer, if any.
std::optional<AsId> next_of(const std::optional<Hop>& hop) {
  if (!hop.has_value()) return std::nullopt;
  return hop->next;
}

Walk policy_walk(const ForwardingFabric& f, AsId from, AsId to) {
  return walk(f, from, to,
              [&](AsId at) { return next_of(f.hop_toward(at, to)); });
}

TEST(FabricTest, SelfNextHopIsSelf) {
  const AsId as = shared_internet().edge_ases()[0];
  EXPECT_EQ(next_of(fabric().hop_toward(as, as)), as);
  EXPECT_DOUBLE_EQ(*fabric().path_delay_ms(as, as), 0.0);
}

TEST(FabricTest, NextHopIsAdjacent) {
  const auto& graph = shared_internet().graph();
  const AsId dest = shared_internet().edge_ases()[3];
  for (AsId u = 0; u < graph.as_count(); u += 17) {
    if (u == dest) continue;
    const auto hop = next_of(fabric().hop_toward(u, dest));
    ASSERT_TRUE(hop.has_value()) << u;
    EXPECT_TRUE(graph.relationship(u, *hop).has_value()) << u;
  }
}

TEST(FabricTest, HopByHopReachesDestination) {
  const AsId src = shared_internet().edge_ases()[1];
  const AsId dest = shared_internet().edge_ases()[10];
  AsId current = src;
  std::size_t hops = 0;
  while (current != dest) {
    const auto next = next_of(fabric().hop_toward(current, dest));
    ASSERT_TRUE(next.has_value());
    current = *next;
    ASSERT_LT(++hops, 32u);
  }
}

TEST(FabricTest, PathDelayIsSumOfLinkDelays) {
  const AsId src = shared_internet().edge_ases()[2];
  const AsId dest = shared_internet().edge_ases()[20];
  double sum = 0.0;
  AsId current = src;
  while (current != dest) {
    const AsId next = fabric().hop_toward(current, dest)->next;
    sum += fabric().link_delay_ms(current, next);
    current = next;
  }
  EXPECT_NEAR(*fabric().path_delay_ms(src, dest), sum, 1e-9);
}

TEST(FabricTest, LinkDelayPositiveAndSymmetricEnough) {
  const auto& graph = shared_internet().graph();
  const AsId a = 0;
  for (const auto& link : graph.links(a)) {
    const double forward = fabric().link_delay_ms(a, link.neighbor);
    const double backward = fabric().link_delay_ms(link.neighbor, a);
    EXPECT_GT(forward, 0.0);
    EXPECT_DOUBLE_EQ(forward, backward);
  }
}

TEST(FabricTest, PhysicalHopsLowerBoundsPolicyHops) {
  for (std::size_t i = 0; i + 5 < shared_internet().edge_ases().size();
       i += 11) {
    const AsId a = shared_internet().edge_ases()[i];
    const AsId b = shared_internet().edge_ases()[i + 5];
    const auto policy = policy_walk(fabric(), a, b).hops;
    ASSERT_TRUE(policy.has_value());
    EXPECT_GE(*policy, fabric().physical_hops(a, b));
  }
}

TEST(FabricTest, OutOfRangeThrows) {
  EXPECT_THROW((void)fabric().hop_toward(1u << 20, 0), std::out_of_range);
  EXPECT_THROW((void)fabric().physical_hops(0, 1u << 20),
               std::out_of_range);
}

TEST(FabricTest, PathQueriesOutOfRangeThrow) {
  constexpr AsId kBad = 1u << 20;
  EXPECT_THROW((void)fabric().path_delay_ms(kBad, 0), std::out_of_range);
  EXPECT_THROW((void)fabric().path_delay_ms(0, kBad), std::out_of_range);
  EXPECT_THROW((void)fabric().path_delay_ms(kBad, kBad), std::out_of_range);
  EXPECT_THROW((void)fabric().hop_toward(kBad, 0), std::out_of_range);
  EXPECT_THROW((void)fabric().hop_toward(0, kBad), std::out_of_range);
}

TEST(FabricTest, PathQueryCountsTheNextHopQueriesItStandsFor) {
  const AsId from = shared_internet().edge_ases()[4];
  const AsId to = shared_internet().edge_ases()[40];
  const std::size_t hops = *policy_walk(fabric(), from, to).hops;
  ASSERT_GT(hops, 0u);
  const obs::EnabledScope scope;
  obs::Counter& queries = obs::metric::fabric_next_hop_queries();
  const std::uint64_t before = queries.value();
  (void)fabric().path_delay_ms(from, to);
  EXPECT_EQ(queries.value() - before, hops);
  // A failure-aware query under no fault reads the same row.
  (void)fabric().path_delay_ms(from, to, no_failures(), 0.0);
  EXPECT_EQ(queries.value() - before, 2 * hops);
  (void)fabric().path_delay_ms(to, to);
  (void)fabric().hop_toward(from, to);
  EXPECT_EQ(queries.value() - before, 2 * hops + 1);
}

// Identity over every (from, dest) pair of the default Internet: the O(1)
// row reads equal what the hop-by-hop walk computes, bit for bit.

TEST(FabricIdentityTest, PathDelayIsTheLeftToRightLinkDelaySum) {
  const ForwardingFabric& f = default_fabric();
  const AsId count = static_cast<AsId>(f.internet().graph().as_count());
  for (AsId dest = 0; dest < count; ++dest) {
    for (AsId from = 0; from < count; ++from) {
      const Walk expected = policy_walk(f, from, dest);
      ASSERT_FALSE(expected.loop) << from << " -> " << dest;
      EXPECT_EQ(f.path_delay_ms(from, dest), expected.delay_ms)
          << from << " -> " << dest;
    }
  }
}

/// The next hop from `at` on the best valley-free path toward `routes`'
/// destination, computed without the fabric; `at` itself at the
/// destination.
std::optional<AsId> policy_next(const routing::PolicyRoutes& routes, AsId at,
                                AsId dest) {
  if (at == dest) return at;
  const auto path = routes.best_path(at);
  if (!path.has_value() || path->empty()) return std::nullopt;
  return path->next_hop();
}

TEST(FabricIdentityTest, HopTowardIsNextHopAndLinkDelay) {
  const ForwardingFabric& f = default_fabric();
  const auto& graph = f.internet().graph();
  const AsId count = static_cast<AsId>(graph.as_count());
  for (AsId dest = 0; dest < count; ++dest) {
    const routing::PolicyRoutes routes(graph, dest);
    for (AsId at = 0; at < count; ++at) {
      const std::optional<AsId> next = policy_next(routes, at, dest);
      const std::optional<Hop> hop = f.hop_toward(at, dest);
      ASSERT_EQ(hop.has_value(), next.has_value()) << at << " -> " << dest;
      if (!next.has_value()) continue;
      EXPECT_EQ(*hop, (Hop{*next, f.link_delay_ms(at, *next)}))
          << at << " -> " << dest;
    }
  }
}

/// The plan's surviving topology, built independently of the fabric:
/// dead ASes lose every adjacency, cut links are dropped.
topology::AsGraph surviving_graph(const topology::AsGraph& graph,
                                  const FailurePlan& plan, double t) {
  topology::AsGraph degraded;
  for (AsId as = 0; as < graph.as_count(); ++as)
    degraded.add_as(graph.tier(as), graph.location(as));
  for (AsId u = 0; u < graph.as_count(); ++u) {
    for (const auto& link : graph.links(u)) {
      const AsId v = link.neighbor;
      if (v < u || plan.as_down(u, t) || plan.as_down(v, t) ||
          plan.link_down(u, v, t))
        continue;
      if (link.rel == topology::AsRelationship::kProvider) {
        degraded.add_provider_link(u, v);
      } else if (link.rel == topology::AsRelationship::kCustomer) {
        degraded.add_provider_link(v, u);
      } else {
        degraded.add_peer_link(u, v);
      }
    }
  }
  return degraded;
}

TEST(FabricIdentityTest, DetourPathDelayIsTheWalkOverSurvivingRoutes) {
  const ForwardingFabric& f = fabric();
  const auto& graph = shared_internet().graph();
  const AsId from0 = shared_internet().edge_ases()[0];
  const AsId to0 = shared_internet().edge_ases()[25];
  std::vector<AsId> route{from0};
  while (route.back() != to0)
    route.push_back(f.hop_toward(route.back(), to0)->next);
  ASSERT_GE(route.size(), 3u);
  const AsId to1 = shared_internet().edge_ases()[60];
  const AsId before_to1 = [&] {
    AsId current = from0;
    while (f.hop_toward(current, to1)->next != to1)
      current = f.hop_toward(current, to1)->next;
    return current;
  }();
  FailurePlan plan;
  plan.as_outage(route[route.size() / 2], 1000.0, 2000.0);
  plan.link_cut(before_to1, to1, 1000.0, 2000.0);
  constexpr double kT = 1500.0;

  const topology::AsGraph degraded = surviving_graph(graph, plan, kT);
  std::size_t detoured = 0;
  for (AsId to = 0; to < graph.as_count(); ++to) {
    std::optional<routing::PolicyRoutes> routes;
    if (!plan.as_down(to, kT)) routes.emplace(degraded, to);
    for (AsId from = 0; from < graph.as_count(); ++from) {
      const auto delay = f.path_delay_ms(from, to, plan, kT);
      if (plan.as_down(from, kT) || plan.as_down(to, kT)) {
        EXPECT_FALSE(delay.has_value()) << from << " -> " << to;
        continue;
      }
      const auto hop = f.hop_toward(from, to, plan, kT);
      if (!f.policy_path_impaired(from, to, plan, kT)) {
        EXPECT_EQ(delay, policy_walk(f, from, to).delay_ms);
        EXPECT_EQ(hop, f.hop_toward(from, to)) << from << " -> " << to;
        continue;
      }
      ++detoured;
      const auto detour_next = [&](AsId at) {
        std::optional<AsId> next;
        if (!plan.as_down(at, kT)) next = policy_next(*routes, at, to);
        return next;
      };
      const Walk expected = walk(f, from, to, detour_next);
      ASSERT_FALSE(expected.loop) << from << " -> " << to;
      EXPECT_EQ(delay, expected.delay_ms) << from << " -> " << to;
      // The failure-aware hop is the surviving route's first link.
      const std::optional<AsId> next = detour_next(from);
      ASSERT_EQ(hop.has_value(), next.has_value()) << from << " -> " << to;
      if (next.has_value()) {
        EXPECT_EQ(*hop, (Hop{*next, f.link_delay_ms(from, *next)}));
      }
    }
  }
  EXPECT_GT(detoured, 0u);
}

}  // namespace
}  // namespace lina::sim
