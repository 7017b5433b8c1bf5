#include "lina/routing/synthetic_internet.hpp"

#include <gtest/gtest.h>

#include <set>

namespace lina::routing {
namespace {

using topology::AsId;
using topology::AsTier;

// Shared small instance: constructing the Internet is the expensive part.
const SyntheticInternet& small_internet() {
  static const SyntheticInternet internet = [] {
    SyntheticInternetConfig config;
    config.topology.tier1_count = 8;
    config.topology.tier2_count = 30;
    config.topology.stub_count = 200;
    return SyntheticInternet(config);
  }();
  return internet;
}

TEST(VantageSpecsTest, PaperRouterSets) {
  const auto rv = routeviews_vantage_specs();
  ASSERT_EQ(rv.size(), 12u);
  EXPECT_EQ(rv.front().name, "Oregon-1");
  EXPECT_EQ(rv.back().name, "Sydney");
  const auto ripe = ripe_vantage_specs();
  EXPECT_EQ(ripe.size(), 13u);
}

TEST(SyntheticInternetTest, TwelveNamedVantages) {
  const auto& internet = small_internet();
  EXPECT_EQ(internet.vantages().size(), 12u);
  EXPECT_EQ(internet.vantage("Oregon-1").name(), "Oregon-1");
  EXPECT_EQ(internet.vantage("Tokyo").name(), "Tokyo");
  EXPECT_THROW((void)internet.vantage("Mars"), std::invalid_argument);
}

TEST(SyntheticInternetTest, VantagesUseDistinctAses) {
  const auto& internet = small_internet();
  std::set<AsId> ases;
  for (const VantageRouter& v : internet.vantages()) {
    ases.insert(v.as_number());
  }
  EXPECT_EQ(ases.size(), internet.vantages().size());
}

TEST(SyntheticInternetTest, EveryVantageCoversAllPrefixes) {
  const auto& internet = small_internet();
  for (const VantageRouter& v : internet.vantages()) {
    EXPECT_EQ(v.fib().size(), internet.all_prefixes().size())
        << v.name() << " is missing routes";
  }
}

TEST(SyntheticInternetTest, PrefixOwnershipConsistent) {
  const auto& internet = small_internet();
  for (const AsId as : internet.edge_ases()) {
    for (const net::Prefix& prefix : internet.prefixes_of(as)) {
      EXPECT_EQ(internet.owner_of(prefix.network()), as);
      EXPECT_EQ(internet.prefix_of(prefix.network()), prefix);
    }
  }
}

TEST(SyntheticInternetTest, Tier1sAnnounceNothing) {
  const auto& internet = small_internet();
  for (const AsId t1 : internet.graph().ases_of_tier(AsTier::kTier1)) {
    EXPECT_TRUE(internet.prefixes_of(t1).empty());
  }
}

TEST(SyntheticInternetTest, EdgeAsesAllAnnounce) {
  const auto& internet = small_internet();
  for (const AsId as : internet.edge_ases()) {
    EXPECT_FALSE(internet.prefixes_of(as).empty());
  }
}

TEST(SyntheticInternetTest, RandomAddressWithinOwner) {
  const auto& internet = small_internet();
  stats::Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    const AsId as =
        internet.edge_ases()[rng.index(internet.edge_ases().size())];
    const net::Ipv4Address addr = internet.random_address_in(as, rng);
    EXPECT_EQ(internet.owner_of(addr), as);
  }
}

TEST(SyntheticInternetTest, RandomAddressInPrefixStaysInside) {
  stats::Rng rng(6);
  const net::Prefix prefix = net::Prefix::parse("10.20.0.0/16");
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(
        prefix.contains(SyntheticInternet::random_address_in(prefix, rng)));
  }
}

TEST(SyntheticInternetTest, RandomAddressRejectsTinyPrefix) {
  stats::Rng rng(6);
  EXPECT_THROW((void)SyntheticInternet::random_address_in(
                   net::Prefix::parse("1.2.3.4/32"), rng),
               std::invalid_argument);
}

TEST(SyntheticInternetTest, OwnerOfUnknownAddressThrows) {
  const auto& internet = small_internet();
  EXPECT_THROW((void)internet.owner_of(net::Ipv4Address::parse("250.0.0.1")),
               std::invalid_argument);
}

TEST(SyntheticInternetTest, CoreVantagesHaveHigherNextHopDegree) {
  // The paper's explanation of Figure 8: Oregon-like routers have high
  // next-hop degree, the Georgia-like router much lower, and the remote
  // edge routers nearly none.
  const auto& internet = small_internet();
  const std::size_t oregon = internet.vantage("Oregon-1").next_hop_degree();
  const std::size_t georgia = internet.vantage("Georgia").next_hop_degree();
  const std::size_t mauritius =
      internet.vantage("Mauritius").next_hop_degree();
  EXPECT_GT(oregon, georgia);
  EXPECT_GT(georgia, mauritius);
  EXPECT_LE(mauritius, 2u);
}

TEST(SyntheticInternetTest, RibsContainMultipleCandidates) {
  // A measurement router hears several routes per prefix ("typically,
  // there are several routes to any given prefix", §6.2.1).
  const auto& internet = small_internet();
  const VantageRouter& oregon = internet.vantage("Oregon-1");
  EXPECT_GT(oregon.rib().route_count(), oregon.rib().prefix_count());
}

TEST(SyntheticInternetTest, RibRoutesAreLoopFreeAndOriginate) {
  const auto& internet = small_internet();
  const VantageRouter& v = internet.vantage("Virginia");
  for (const net::Prefix& prefix : v.rib().prefixes()) {
    const AsId owner = internet.owner_of(prefix.network());
    for (const RibRoute& route : v.rib().candidates(prefix)) {
      EXPECT_TRUE(route.as_path.loop_free());
      EXPECT_EQ(route.as_path.origin(), owner);
      if (owner == v.as_number()) {
        // Self route: local delivery encoded as the one-hop path {v}.
        EXPECT_EQ(route.as_path.length(), 1u);
      } else {
        EXPECT_FALSE(route.as_path.contains(v.as_number()));
      }
    }
  }
}

TEST(SyntheticInternetTest, EdgeAsesNearReturnsSortedByDistance) {
  const auto& internet = small_internet();
  const auto anchor = topology::metro_anchors()[0];
  const auto near = internet.edge_ases_near(anchor, 10);
  ASSERT_EQ(near.size(), 10u);
  double prev = 0.0;
  for (const AsId as : near) {
    const double d =
        topology::great_circle_km(anchor, internet.graph().location(as));
    EXPECT_GE(d, prev);
    prev = d;
  }
}

TEST(SyntheticInternetTest, BuildVantagesForRipeSet) {
  const auto& internet = small_internet();
  const auto ripe = internet.build_vantages(ripe_vantage_specs());
  EXPECT_EQ(ripe.size(), 13u);
  for (const VantageRouter& v : ripe) {
    EXPECT_EQ(v.fib().size(), internet.all_prefixes().size());
  }
}

TEST(SyntheticInternetTest, DeterministicAcrossConstruction) {
  SyntheticInternetConfig config;
  config.topology.tier1_count = 4;
  config.topology.tier2_count = 10;
  config.topology.stub_count = 40;
  config.seed = 123;
  const SyntheticInternet a(config);
  const SyntheticInternet b(config);
  ASSERT_EQ(a.all_prefixes().size(), b.all_prefixes().size());
  for (std::size_t i = 0; i < a.vantages().size(); ++i) {
    EXPECT_EQ(a.vantages()[i].as_number(), b.vantages()[i].as_number());
    EXPECT_EQ(a.vantages()[i].fib().next_hop_degree(),
              b.vantages()[i].fib().next_hop_degree());
  }
}

TEST(VantageRouterTest, SelfRouteUsesLocalPort) {
  const auto& internet = small_internet();
  // Mauritius/Tokyo are stub vantages announcing their own prefixes.
  const VantageRouter& tokyo = internet.vantage("Tokyo");
  const auto own = internet.prefixes_of(tokyo.as_number());
  ASSERT_FALSE(own.empty());
  const auto port = tokyo.fib().freeze().port_for(own.front().network());
  ASSERT_TRUE(port.has_value());
  EXPECT_EQ(*port, tokyo.as_number());
}

}  // namespace
}  // namespace lina::routing
