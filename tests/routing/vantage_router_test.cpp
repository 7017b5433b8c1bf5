#include "lina/routing/vantage_router.hpp"

#include <gtest/gtest.h>

namespace lina::routing {
namespace {

RibRoute route(const char* prefix, std::vector<topology::AsId> hops,
               RouteClass cls) {
  return RibRoute{.prefix = net::Prefix::parse(prefix),
                  .as_path = AsPath(std::move(hops)),
                  .route_class = cls,
                  .local_pref = 0,
                  .med = 0};
}

TEST(VantageRouterTest, MetadataAccessors) {
  const VantageRouter router("test", 42, {10.0, 20.0});
  EXPECT_EQ(router.name(), "test");
  EXPECT_EQ(router.as_number(), 42u);
  EXPECT_DOUBLE_EQ(router.location().latitude_deg, 10.0);
  EXPECT_EQ(router.fib().size(), 0u);
  EXPECT_EQ(router.fib().freeze().port_for(net::Ipv4Address::parse("1.2.3.4")),
            std::nullopt);
}

TEST(VantageRouterTest, FibRebuiltAfterLaterInstall) {
  VantageRouter router("test", 42, {});
  router.install(route("1.0.0.0/16", {7, 99}, RouteClass::kProvider));
  // Force a FIB build, then install a better route: lookups must see it.
  const auto addr = net::Ipv4Address::parse("1.0.0.1");
  EXPECT_EQ(router.fib().freeze().port_for(addr), 7u);
  router.install(route("1.0.0.0/16", {8, 99}, RouteClass::kCustomer));
  EXPECT_EQ(router.fib().freeze().port_for(addr), 8u);
  EXPECT_EQ(router.rib().route_count(), 2u);
  EXPECT_EQ(router.fib().size(), 1u);
}

TEST(VantageRouterTest, RouteForReturnsMatchedPrefix) {
  VantageRouter router("test", 42, {});
  router.install(route("10.0.0.0/8", {1, 9}, RouteClass::kPeer));
  router.install(route("10.1.0.0/16", {2, 9}, RouteClass::kPeer));
  const auto hit =
      router.fib().freeze().trie().lookup(net::Ipv4Address::parse("10.1.0.7"));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->first, net::Prefix::parse("10.1.0.0/16"));
  EXPECT_EQ(hit->second.port, 2u);
}

TEST(VantageRouterTest, NextHopDegree) {
  VantageRouter router("test", 42, {});
  router.install(route("1.0.0.0/16", {7, 99}, RouteClass::kPeer));
  router.install(route("2.0.0.0/16", {7, 88}, RouteClass::kPeer));
  router.install(route("3.0.0.0/16", {9, 77}, RouteClass::kPeer));
  EXPECT_EQ(router.next_hop_degree(), 2u);
}

}  // namespace
}  // namespace lina::routing
