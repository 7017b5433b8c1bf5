#include "lina/strategy/forwarding_strategy.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "../support/reference_best_port.hpp"

namespace lina::strategy {
namespace {

using net::Ipv4Address;
using net::Prefix;
using routing::Fib;
using routing::FibEntry;
using routing::RouteClass;

// A FIB with three prefixes on three ports; 2.x is the most preferred
// (customer), 1.x is a peer route, 3.x is a provider route.
Fib make_fib() {
  Fib fib;
  fib.insert(Prefix::parse("1.0.0.0/16"),
             FibEntry{.port = 11, .route_class = RouteClass::kPeer,
                      .path_length = 2, .med = 0});
  fib.insert(Prefix::parse("2.0.0.0/16"),
             FibEntry{.port = 22, .route_class = RouteClass::kCustomer,
                      .path_length = 3, .med = 0});
  fib.insert(Prefix::parse("3.0.0.0/16"),
             FibEntry{.port = 33, .route_class = RouteClass::kProvider,
                      .path_length = 1, .med = 0});
  return fib;
}

std::vector<Ipv4Address> addrs(std::initializer_list<const char*> list) {
  std::vector<Ipv4Address> out;
  for (const char* a : list) out.push_back(Ipv4Address::parse(a));
  return out;
}

// Strategies observe resolved entries; the frozen FIB's entries live in its
// arena, so the pointers stay valid for the test's lifetime.
const routing::FrozenFib& frozen_fib() {
  static const routing::FrozenFib fib = make_fib().freeze();
  return fib;
}

std::vector<const FibEntry*> entries(std::initializer_list<const char*> list) {
  std::vector<const FibEntry*> out;
  for (const Ipv4Address addr : addrs(list)) {
    out.push_back(frozen_fib().entry_for(addr));
  }
  return out;
}

std::vector<routing::Port> ports_of(const ForwardingStrategy& strat) {
  const auto ports = strat.current_ports();
  return {ports.begin(), ports.end()};
}

std::vector<routing::Port> eligible(std::initializer_list<const char*> list) {
  std::vector<routing::Port> out{99};  // stale content must be cleared
  eligible_ports(entries(list), out);
  return out;
}

using Ports = std::vector<routing::Port>;

TEST(StrategyNameTest, AllKindsNamed) {
  EXPECT_EQ(strategy_name(StrategyKind::kBestPort), "best-port");
  EXPECT_EQ(strategy_name(StrategyKind::kControlledFlooding),
            "controlled-flooding");
  EXPECT_EQ(strategy_name(StrategyKind::kHistoryUnion), "history-union");
}

TEST(EligiblePortsTest, CollectsPortsOfRoutedAddresses) {
  EXPECT_EQ(eligible({"1.0.0.1", "2.0.0.1", "9.9.9.9"}), (Ports{11, 22}));
  // Sorted and de-duplicated whatever the address order.
  EXPECT_EQ(eligible({"3.0.0.1", "2.0.0.1", "2.0.0.7", "1.0.0.1"}),
            (Ports{11, 22, 33}));
}

TEST(EligiblePortsTest, EmptyForUnroutedSet) {
  EXPECT_TRUE(eligible({"9.9.9.9"}).empty());
  EXPECT_TRUE(eligible({}).empty());
}

TEST(BestEntryTest, PicksMostPreferredAcrossAddresses) {
  const FibEntry* best = best_entry(entries({"1.0.0.1", "2.0.0.1", "3.0.0.1"}));
  ASSERT_NE(best, nullptr);
  EXPECT_EQ(best->port, 22u);  // customer route wins
  // The reference rule over the reference trie makes the same choice.
  const auto reference = lina::testing::reference_best_entry(
      lina::testing::reference_trie(make_fib()),
      addrs({"1.0.0.1", "2.0.0.1", "3.0.0.1"}));
  ASSERT_TRUE(reference.has_value());
  EXPECT_EQ(*reference, *best);
}

TEST(BestEntryTest, NulloptWhenNothingRouted) {
  EXPECT_EQ(best_entry(entries({"9.9.9.9"})), nullptr);
  EXPECT_EQ(best_entry(entries({})), nullptr);
  EXPECT_EQ(lina::testing::reference_best_entry(
                lina::testing::reference_trie(make_fib()), addrs({"9.9.9.9"})),
            std::nullopt);
}

TEST(BestEntryTest, TieOnClassPathAndMedBreaksOnPort) {
  // Equal class, path length and MED on different ports: the lower port
  // wins whatever the address order, so reordering is never an update.
  Fib fib;
  fib.insert(Prefix::parse("4.0.0.0/16"),
             FibEntry{.port = 44, .route_class = RouteClass::kPeer,
                      .path_length = 2, .med = 5});
  fib.insert(Prefix::parse("5.0.0.0/16"),
             FibEntry{.port = 43, .route_class = RouteClass::kPeer,
                      .path_length = 2, .med = 5});
  const routing::FrozenFib frozen = fib.freeze();
  const FibEntry* e4 = frozen.entry_for(Ipv4Address::parse("4.0.0.1"));
  const FibEntry* e5 = frozen.entry_for(Ipv4Address::parse("5.0.0.1"));
  ASSERT_NE(e4, nullptr);
  ASSERT_NE(e5, nullptr);
  const std::vector<const FibEntry*> forward{e4, e5}, backward{e5, e4};
  EXPECT_EQ(best_entry(forward), e5);
  EXPECT_EQ(best_entry(backward), e5);
  const auto strat = make_strategy(StrategyKind::kBestPort);
  EXPECT_FALSE(strat->observe(forward));
  EXPECT_FALSE(strat->observe(backward));
  EXPECT_EQ(ports_of(*strat), (Ports{43}));
}

TEST(BestPortStrategyTest, FirstObservationNeverCounts) {
  const auto strat = make_strategy(StrategyKind::kBestPort);
  EXPECT_TRUE(strat->current_ports().empty());
  EXPECT_FALSE(strat->observe(entries({"1.0.0.1"})));
  EXPECT_EQ(ports_of(*strat), (Ports{11}));
}

TEST(BestPortStrategyTest, UpdatesOnlyWhenBestPortChanges) {
  const auto strat = make_strategy(StrategyKind::kBestPort);
  strat->observe(entries({"2.0.0.1", "3.0.0.1"}));  // best = 22
  EXPECT_EQ(ports_of(*strat), (Ports{22}));
  // Losing the provider replica does not move the best port.
  EXPECT_FALSE(strat->observe(entries({"2.0.0.1"})));
  // Losing the customer replica does.
  EXPECT_TRUE(strat->observe(entries({"3.0.0.1"})));
  EXPECT_EQ(ports_of(*strat), (Ports{33}));
}

TEST(BestPortStrategyTest, AddressChurnWithinBestPrefixIsFree) {
  // The paper's key best-port observation: replica churn that keeps the
  // preferred location does not update the router.
  const auto strat = make_strategy(StrategyKind::kBestPort);
  strat->observe(entries({"2.0.0.1", "1.0.0.1"}));
  EXPECT_FALSE(strat->observe(entries({"2.0.0.99", "1.0.0.7"})));
  EXPECT_FALSE(strat->observe(entries({"2.0.55.1"})));
  EXPECT_EQ(ports_of(*strat), (Ports{22}));
}

TEST(BestPortStrategyTest, TransitionToUnroutedCounts) {
  const auto strat = make_strategy(StrategyKind::kBestPort);
  strat->observe(entries({"1.0.0.1"}));
  EXPECT_TRUE(strat->observe(entries({"9.9.9.9"})));
  EXPECT_TRUE(strat->current_ports().empty());
  // Staying unrouted (or empty) is not a further change.
  EXPECT_FALSE(strat->observe(entries({})));
}

TEST(ControlledFloodingStrategyTest, UpdatesOnAnyEligibleSetChange) {
  const auto strat = make_strategy(StrategyKind::kControlledFlooding);
  strat->observe(entries({"1.0.0.1", "2.0.0.1"}));  // {11, 22}
  EXPECT_EQ(ports_of(*strat), (Ports{11, 22}));
  // Same ports, different addresses: no update.
  EXPECT_FALSE(strat->observe(entries({"1.0.0.2", "2.0.0.9"})));
  // Extra port appears: update.
  EXPECT_TRUE(strat->observe(entries({"1.0.0.2", "2.0.0.9", "3.0.0.1"})));
  EXPECT_EQ(ports_of(*strat), (Ports{11, 22, 33}));
  // Port disappears: update.
  EXPECT_TRUE(strat->observe(entries({"1.0.0.2"})));
  EXPECT_EQ(ports_of(*strat), (Ports{11}));
}

TEST(ControlledFloodingStrategyTest, AtLeastAsCostlyAsBestPort) {
  // §3.3.3: controlled flooding's update cost is at least best-port's.
  const auto flood = make_strategy(StrategyKind::kControlledFlooding);
  const auto best = make_strategy(StrategyKind::kBestPort);
  const std::vector<std::vector<const FibEntry*>> snapshots{
      entries({"1.0.0.1", "2.0.0.1"}),
      entries({"1.0.0.1", "2.0.0.1", "3.0.0.1"}),
      entries({"2.0.0.1", "3.0.0.1"}), entries({"3.0.0.1"}),
      entries({"1.0.0.1", "3.0.0.1"}), entries({"2.0.0.5"}),
  };
  int flood_updates = 0, best_updates = 0;
  for (const auto& snapshot : snapshots) {
    if (flood->observe(snapshot)) ++flood_updates;
    if (best->observe(snapshot)) ++best_updates;
  }
  EXPECT_EQ(flood_updates, 5);
  EXPECT_EQ(best_updates, 3);
  EXPECT_GE(flood_updates, best_updates);
}

TEST(HistoryUnionStrategyTest, RevisitsAreFree) {
  // §3.3.3: once a location has been seen, flitting back and forth across
  // known locations never updates the router.
  const auto strat = make_strategy(StrategyKind::kHistoryUnion);
  strat->observe(entries({"1.0.0.1"}));
  EXPECT_TRUE(strat->observe(entries({"2.0.0.1"})));   // new port
  EXPECT_FALSE(strat->observe(entries({"1.0.0.1"})));  // revisit
  EXPECT_FALSE(strat->observe(entries({"2.0.0.1"})));  // revisit
  // Port set is the union of history.
  EXPECT_EQ(ports_of(*strat), (Ports{11, 22}));
}

TEST(HistoryUnionStrategyTest, OnlyTrulyNewLocationsCost) {
  const auto strat = make_strategy(StrategyKind::kHistoryUnion);
  strat->observe(entries({"1.0.0.1"}));
  // New address, same prefix/port: union grows but ports unchanged.
  EXPECT_FALSE(strat->observe(entries({"1.0.0.2"})));
  // Unrouted and empty observations add nothing.
  EXPECT_FALSE(strat->observe(entries({"9.9.9.9"})));
  EXPECT_FALSE(strat->observe(entries({})));
  EXPECT_TRUE(strat->observe(entries({"3.0.0.1"})));
  EXPECT_EQ(ports_of(*strat), (Ports{11, 33}));
}

TEST(StrategyResetTest, ResetForgetsEverything) {
  for (const auto kind :
       {StrategyKind::kBestPort, StrategyKind::kControlledFlooding,
        StrategyKind::kHistoryUnion}) {
    const auto strat = make_strategy(kind);
    strat->observe(entries({"1.0.0.1"}));
    strat->reset();
    EXPECT_TRUE(strat->current_ports().empty());
    // Post-reset first observation initializes again without counting.
    EXPECT_FALSE(strat->observe(entries({"3.0.0.1"})));
    EXPECT_EQ(ports_of(*strat), (Ports{33})) << strategy_name(kind);
  }
}

TEST(StrategyFactoryTest, KindsRoundTrip) {
  for (const auto kind :
       {StrategyKind::kBestPort, StrategyKind::kControlledFlooding,
        StrategyKind::kHistoryUnion}) {
    EXPECT_EQ(make_strategy(kind)->kind(), kind);
  }
}

}  // namespace
}  // namespace lina::strategy
