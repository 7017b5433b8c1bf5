#include "lina/routing/fib.hpp"

#include <gtest/gtest.h>

namespace lina::routing {
namespace {

TEST(EntryPreferenceTest, OrderingRules) {
  const FibEntry customer{.port = 9,
                          .route_class = RouteClass::kCustomer,
                          .path_length = 5,
                          .med = 9};
  const FibEntry peer_short{
      .port = 1, .route_class = RouteClass::kPeer, .path_length = 1, .med = 0};
  EXPECT_TRUE(entry_preferred(customer, peer_short));

  const FibEntry peer_longer{
      .port = 0, .route_class = RouteClass::kPeer, .path_length = 2, .med = 0};
  EXPECT_TRUE(entry_preferred(peer_short, peer_longer));

  const FibEntry peer_same_med9{
      .port = 0, .route_class = RouteClass::kPeer, .path_length = 1, .med = 9};
  EXPECT_TRUE(entry_preferred(peer_short, peer_same_med9));

  const FibEntry peer_tie_port2{
      .port = 2, .route_class = RouteClass::kPeer, .path_length = 1, .med = 0};
  EXPECT_TRUE(entry_preferred(peer_short, peer_tie_port2));
}

TEST(FibTest, FromRibSelectsBestPerPrefix) {
  Rib rib;
  rib.add(RibRoute{.prefix = net::Prefix::parse("1.0.0.0/16"),
                   .as_path = AsPath({10, 99}),
                   .route_class = RouteClass::kProvider});
  rib.add(RibRoute{.prefix = net::Prefix::parse("1.0.0.0/16"),
                   .as_path = AsPath({20, 99}),
                   .route_class = RouteClass::kCustomer});
  rib.add(RibRoute{.prefix = net::Prefix::parse("2.0.0.0/16"),
                   .as_path = AsPath({30, 88}),
                   .route_class = RouteClass::kPeer});
  const Fib fib = Fib::from_rib(rib);
  EXPECT_EQ(fib.size(), 2u);
  const FrozenFib frozen = fib.freeze();
  EXPECT_EQ(frozen.port_for(net::Ipv4Address::parse("1.0.5.5")), 20u);
  EXPECT_EQ(frozen.port_for(net::Ipv4Address::parse("2.0.5.5")), 30u);
  EXPECT_EQ(frozen.port_for(net::Ipv4Address::parse("9.0.0.1")), std::nullopt);

  const auto entry = frozen.trie().lookup(net::Ipv4Address::parse("1.0.5.5"));
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->first, net::Prefix::parse("1.0.0.0/16"));
  EXPECT_EQ(entry->second.route_class, RouteClass::kCustomer);
  EXPECT_EQ(entry->second.path_length, 2u);
}

TEST(FibTest, LongestPrefixWins) {
  Fib fib;
  fib.insert(net::Prefix::parse("10.0.0.0/8"),
             FibEntry{.port = 1, .route_class = RouteClass::kPeer});
  fib.insert(net::Prefix::parse("10.1.0.0/16"),
             FibEntry{.port = 2, .route_class = RouteClass::kPeer});
  const FrozenFib frozen = fib.freeze();
  EXPECT_EQ(frozen.port_for(net::Ipv4Address::parse("10.1.0.1")), 2u);
  EXPECT_EQ(frozen.port_for(net::Ipv4Address::parse("10.2.0.1")), 1u);
}

TEST(FibTest, NextHopDegreeCountsDistinctPorts) {
  Fib fib;
  fib.insert(net::Prefix::parse("1.0.0.0/16"), FibEntry{.port = 7});
  fib.insert(net::Prefix::parse("2.0.0.0/16"), FibEntry{.port = 7});
  fib.insert(net::Prefix::parse("3.0.0.0/16"), FibEntry{.port = 9});
  EXPECT_EQ(fib.next_hop_degree(), 2u);
}

TEST(FibTest, VisitEnumerates) {
  Fib fib;
  fib.insert(net::Prefix::parse("1.0.0.0/16"), FibEntry{.port = 1});
  fib.insert(net::Prefix::parse("2.0.0.0/16"), FibEntry{.port = 2});
  std::size_t count = 0;
  fib.visit([&count](const net::Prefix&, const FibEntry&) { ++count; });
  EXPECT_EQ(count, 2u);
}

}  // namespace
}  // namespace lina::routing
