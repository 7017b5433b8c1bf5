#include "lina/net/ip_trie.hpp"

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <vector>

#include "lina/stats/rng.hpp"

namespace lina::net {
namespace {

// IpTrie only builds; every lookup below reads the FrozenIpTrie that
// freeze() emits.

TEST(IpTrieTest, EmptyLookup) {
  IpTrie<int> trie;
  EXPECT_TRUE(trie.empty());
  const FrozenIpTrie<int> frozen = trie.freeze();
  EXPECT_TRUE(frozen.empty());
  EXPECT_EQ(frozen.lookup(Ipv4Address::parse("1.2.3.4")), std::nullopt);
}

TEST(IpTrieTest, InsertAndExact) {
  IpTrie<int> trie;
  EXPECT_TRUE(trie.insert(Prefix::parse("10.0.0.0/8"), 1));
  EXPECT_FALSE(trie.insert(Prefix::parse("10.0.0.0/8"), 2));  // overwrite
  EXPECT_EQ(trie.size(), 1u);
  const auto hit = trie.freeze().lookup(Ipv4Address::parse("10.0.0.1"));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->first, Prefix::parse("10.0.0.0/8"));
  EXPECT_EQ(hit->second, 2);
}

TEST(IpTrieTest, LongestPrefixMatchPrefersSpecific) {
  IpTrie<int> trie;
  trie.insert(Prefix::parse("10.0.0.0/8"), 8);
  trie.insert(Prefix::parse("10.1.0.0/16"), 16);
  trie.insert(Prefix::parse("10.1.2.0/24"), 24);
  const FrozenIpTrie<int> frozen = trie.freeze();

  const auto hit24 = frozen.lookup(Ipv4Address::parse("10.1.2.3"));
  ASSERT_TRUE(hit24.has_value());
  EXPECT_EQ(hit24->second, 24);
  EXPECT_EQ(hit24->first, Prefix::parse("10.1.2.0/24"));

  const auto hit16 = frozen.lookup(Ipv4Address::parse("10.1.3.1"));
  ASSERT_TRUE(hit16.has_value());
  EXPECT_EQ(hit16->second, 16);

  const auto hit8 = frozen.lookup(Ipv4Address::parse("10.200.0.1"));
  ASSERT_TRUE(hit8.has_value());
  EXPECT_EQ(hit8->second, 8);

  EXPECT_EQ(frozen.lookup(Ipv4Address::parse("11.0.0.0")), std::nullopt);
}

TEST(IpTrieTest, PaperDisplacementExample) {
  // Figure 2 left: 22.33.44.0/24 -> port 5, 22.33.0.0/16 -> port 3. An
  // endpoint at 22.33.44.55 moving to 22.33.88.55 is displaced (ports 5 vs
  // 3); inserting a /32 exception restores correctness.
  IpTrie<int> fib;
  fib.insert(Prefix::parse("22.33.44.0/24"), 5);
  fib.insert(Prefix::parse("22.33.0.0/16"), 3);
  const FrozenIpTrie<int> before = fib.freeze();
  EXPECT_EQ(before.lookup(Ipv4Address::parse("22.33.44.55"))->second, 5);
  EXPECT_EQ(before.lookup(Ipv4Address::parse("22.33.88.55"))->second, 3);

  fib.insert(Prefix::host(Ipv4Address::parse("22.33.44.55")), 3);
  const FrozenIpTrie<int> after = fib.freeze();
  EXPECT_EQ(after.lookup(Ipv4Address::parse("22.33.44.55"))->second, 3);
  EXPECT_EQ(after.lookup(Ipv4Address::parse("22.33.44.56"))->second, 5);
}

TEST(IpTrieTest, DefaultRouteMatchesEverything) {
  IpTrie<int> trie;
  trie.insert(Prefix(Ipv4Address(0), 0), 99);
  const FrozenIpTrie<int> frozen = trie.freeze();
  EXPECT_EQ(frozen.lookup(Ipv4Address::parse("255.255.255.255"))->second, 99);
  EXPECT_EQ(frozen.lookup(Ipv4Address::parse("0.0.0.0"))->second, 99);
}

TEST(IpTrieTest, VisitEnumeratesAll) {
  IpTrie<int> trie;
  trie.insert(Prefix::parse("0.0.0.0/0"), 0);
  trie.insert(Prefix::parse("128.0.0.0/1"), 1);
  trie.insert(Prefix::parse("10.0.0.0/8"), 2);
  trie.insert(Prefix::host(Ipv4Address::parse("1.1.1.1")), 3);
  std::map<Prefix, int> seen;
  trie.visit([&seen](const Prefix& p, const int& v) { seen[p] = v; });
  EXPECT_EQ(seen.size(), 4u);
  EXPECT_EQ(seen[Prefix::parse("10.0.0.0/8")], 2);
  EXPECT_EQ(seen[Prefix::host(Ipv4Address::parse("1.1.1.1"))], 3);
}

TEST(IpTrieTest, MoveSemantics) {
  IpTrie<int> trie;
  trie.insert(Prefix::parse("10.0.0.0/8"), 7);
  IpTrie<int> moved = std::move(trie);
  EXPECT_EQ(moved.freeze().lookup(Ipv4Address::parse("10.0.0.1"))->second, 7);
}

// Property test: the frozen trie agrees with a brute-force longest-prefix
// scan on random tables, across densities.
class IpTriePropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(IpTriePropertyTest, AgreesWithBruteForce) {
  stats::Rng rng(static_cast<std::uint64_t>(GetParam()));
  IpTrie<int> trie;
  std::map<Prefix, int> reference;
  const int entries = 50 + GetParam() * 40;
  for (int i = 0; i < entries; ++i) {
    const auto addr =
        Ipv4Address(static_cast<std::uint32_t>(rng.uniform_int(0, 0xffffffff)));
    const auto length = static_cast<unsigned>(rng.uniform_int(0, 32));
    const Prefix prefix(addr, length);
    trie.insert(prefix, i);
    reference[prefix] = i;
  }
  EXPECT_EQ(trie.size(), reference.size());
  const FrozenIpTrie<int> frozen = trie.freeze();

  for (int q = 0; q < 500; ++q) {
    const auto addr =
        Ipv4Address(static_cast<std::uint32_t>(rng.uniform_int(0, 0xffffffff)));
    std::optional<std::pair<Prefix, int>> expected;
    for (const auto& [prefix, value] : reference) {
      if (prefix.contains(addr) &&
          (!expected.has_value() ||
           prefix.length() > expected->first.length())) {
        expected = {prefix, value};
      }
    }
    const auto actual = frozen.lookup(addr);
    ASSERT_EQ(actual.has_value(), expected.has_value());
    if (actual.has_value()) {
      EXPECT_EQ(actual->first, expected->first);
      EXPECT_EQ(actual->second, expected->second);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomTables, IpTriePropertyTest,
                         ::testing::Range(0, 6));

}  // namespace
}  // namespace lina::net
