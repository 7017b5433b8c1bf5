#include "lina/names/name_trie.hpp"

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <stdexcept>
#include <vector>

#include "lina/stats/rng.hpp"

namespace lina::names {
namespace {

ContentName dns(const char* text) { return ContentName::from_dns(text); }

TEST(NameTrieTest, EmptyLookup) {
  NameTrie<int> trie;
  EXPECT_TRUE(trie.empty());
  EXPECT_EQ(trie.lookup(dns("a.com")), std::nullopt);
}

TEST(NameTrieTest, ExactAndOverwrite) {
  NameTrie<int> trie;
  EXPECT_TRUE(trie.insert(dns("yahoo.com"), 2));
  EXPECT_FALSE(trie.insert(dns("yahoo.com"), 3));
  EXPECT_EQ(trie.size(), 1u);
  ASSERT_NE(trie.exact(dns("yahoo.com")), nullptr);
  EXPECT_EQ(*trie.exact(dns("yahoo.com")), 3);
  EXPECT_EQ(trie.exact(dns("travel.yahoo.com")), nullptr);
}

TEST(NameTrieTest, LongestMatchingPrefix) {
  NameTrie<int> trie;
  trie.insert(dns("com"), 1);
  trie.insert(dns("yahoo.com"), 2);
  trie.insert(dns("sports.yahoo.com"), 5);

  auto hit = trie.lookup(dns("sports.yahoo.com"));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->second, 5);
  EXPECT_EQ(hit->first, dns("sports.yahoo.com"));

  hit = trie.lookup(dns("travel.yahoo.com"));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->second, 2);
  EXPECT_EQ(hit->first, dns("yahoo.com"));

  hit = trie.lookup(dns("deep.travel.yahoo.com"));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->second, 2);

  hit = trie.lookup(dns("cnn.com"));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->second, 1);
}

TEST(NameTrieTest, NoMatchOutsideHierarchy) {
  NameTrie<int> trie;
  trie.insert(dns("yahoo.com"), 2);
  EXPECT_EQ(trie.lookup(dns("mit.edu")), std::nullopt);
  EXPECT_EQ(trie.lookup(dns("com")), std::nullopt);
}

TEST(NameTrieTest, RootEntryCatchesAll) {
  NameTrie<int> trie;
  trie.insert(ContentName(), 42);
  EXPECT_EQ(trie.lookup(dns("anything.example"))->second, 42);
}

TEST(NameTrieTest, VisitInOrder) {
  NameTrie<int> trie;
  trie.insert(dns("cnn.com"), 1);
  trie.insert(dns("yahoo.com"), 2);
  trie.insert(dns("travel.yahoo.com"), 3);
  std::map<std::string, int> seen;
  trie.visit([&seen](const ContentName& n, const int& v) {
    seen[n.to_dns()] = v;
  });
  EXPECT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen["travel.yahoo.com"], 3);
}

TEST(NameTrieTest, Figure3Aggregateability) {
  // Figure 3: [yahoo.com 2], [travel.yahoo.com 2] (subsumed),
  // [sports.yahoo.com 5], [cnn.com 2], [mit.edu 4].
  NameTrie<int> trie;
  trie.insert(dns("yahoo.com"), 2);
  trie.insert(dns("travel.yahoo.com"), 2);
  trie.insert(dns("sports.yahoo.com"), 5);
  trie.insert(dns("cnn.com"), 2);
  trie.insert(dns("mit.edu"), 4);
  EXPECT_EQ(trie.size(), 5u);
  // travel.yahoo.com is subsumed by yahoo.com; nothing else collapses
  // (cnn.com shares the port but not the hierarchy).
  EXPECT_EQ(trie.lpm_compressed_size(), 4u);
}

TEST(NameTrieTest, AggregateabilityDeepChains) {
  NameTrie<int> trie;
  trie.insert(dns("com"), 9);
  trie.insert(dns("a.com"), 9);
  trie.insert(dns("b.a.com"), 9);
  trie.insert(dns("c.b.a.com"), 1);
  trie.insert(dns("d.c.b.a.com"), 9);
  EXPECT_EQ(trie.size(), 5u);
  // com kept; a.com, b.a.com subsumed; c.b.a.com kept; d.c... kept
  // (its nearest stored ancestor c.b.a.com has value 1).
  EXPECT_EQ(trie.lpm_compressed_size(), 3u);
}

TEST(NameTrieTest, ClearResets) {
  NameTrie<int> trie;
  trie.insert(dns("a.com"), 1);
  trie.clear();
  EXPECT_TRUE(trie.empty());
  EXPECT_EQ(trie.lookup(dns("a.com")), std::nullopt);
}

TEST(NameTrieTest, CopyIsIndependent) {
  NameTrie<int> trie;
  trie.insert(dns("yahoo.com"), 2);
  NameTrie<int> copy = trie;
  copy.insert(dns("travel.yahoo.com"), 7);
  trie.insert(dns("yahoo.com"), 3);
  EXPECT_EQ(trie.size(), 1u);
  EXPECT_EQ(trie.lookup(dns("travel.yahoo.com"))->second, 3);
  EXPECT_EQ(copy.size(), 2u);
  EXPECT_EQ(copy.lookup(dns("travel.yahoo.com"))->second, 7);
  EXPECT_EQ(copy.lookup(dns("sports.yahoo.com"))->second, 2);
}

TEST(NameTrieTest, FromEdgesRebuildsTheSerializedForm) {
  NameTrie<int> trie;
  trie.insert(dns("yahoo.com"), 2);
  trie.insert(dns("travel.yahoo.com"), 2);
  trie.insert(dns("sports.yahoo.com"), 5);
  std::vector<NameTrie<int>::Edge> edges;
  trie.for_each_edge([&](const NameTrie<int>::Edge& e) { edges.push_back(e); });
  std::vector<std::optional<int>> values;
  for (std::size_t s = 0; s < trie.live_nodes(); ++s) {
    values.push_back(trie.slot_value(s));
  }
  ASSERT_EQ(edges.size(), trie.live_nodes() - 1);

  const auto rebuilt = NameTrie<int>::from_edges(values, edges);
  EXPECT_EQ(rebuilt.size(), 3u);
  EXPECT_EQ(rebuilt.lpm_compressed_size(), 2u);
  EXPECT_EQ(rebuilt.table_bytes(), trie.table_bytes());
  EXPECT_EQ(rebuilt.lookup(dns("travel.yahoo.com")),
            trie.lookup(dns("travel.yahoo.com")));
  EXPECT_EQ(rebuilt.lookup(dns("x.sports.yahoo.com"))->second, 5);

  // Edges are in child-slot order: slot 1 is "com" under the root.
  auto broken = edges;
  broken[0].child = 0;  // an edge into the root
  EXPECT_THROW((void)NameTrie<int>::from_edges(values, broken),
               std::invalid_argument);
  broken = edges;
  broken.pop_back();  // a slot no edge reaches
  EXPECT_THROW((void)NameTrie<int>::from_edges(values, broken),
               std::invalid_argument);
  EXPECT_THROW((void)NameTrie<int>::from_edges({}, {}),
               std::invalid_argument);
}

TEST(NameTrieTest, DeepRebuiltChainCountsWithoutRecursion) {
  // A serialized trie may be one long chain; neither the rebuild nor the
  // compressed count may recurse once per level.
  constexpr std::uint32_t kDepth = 300000;
  const std::uint32_t id = ComponentInterner::global().intern("deep");
  std::vector<NameTrie<int>::Edge> edges;
  std::vector<std::optional<int>> values(kDepth + 1);
  for (std::uint32_t slot = 0; slot <= kDepth; ++slot) {
    if (slot > 0) edges.push_back({slot - 1, id, slot});
    values[slot] = static_cast<int>(slot % 2);  // every entry differs
  }
  const auto trie = NameTrie<int>::from_edges(std::move(values), edges);
  EXPECT_EQ(trie.size(), kDepth + 1u);
  EXPECT_EQ(trie.lpm_compressed_size(), kDepth + 1u);
}

// Property test: trie lookups agree with brute force over random
// hierarchical names.
class NameTriePropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(NameTriePropertyTest, AgreesWithBruteForce) {
  stats::Rng rng(static_cast<std::uint64_t>(GetParam()) + 100);
  const auto random_name = [&rng]() {
    const std::size_t depth = 1 + rng.index(4);
    std::vector<std::string> parts;
    for (std::size_t d = 0; d < depth; ++d) {
      parts.push_back("c" + std::to_string(rng.index(4)));
    }
    return ContentName(parts);
  };

  NameTrie<int> trie;
  std::map<ContentName, int> reference;
  for (int i = 0; i < 120; ++i) {
    const ContentName name = random_name();
    trie.insert(name, i);
    reference[name] = i;
  }
  EXPECT_EQ(trie.size(), reference.size());

  for (int q = 0; q < 300; ++q) {
    const ContentName query = random_name();
    std::optional<std::pair<ContentName, int>> expected;
    for (const auto& [name, value] : reference) {
      if (name.is_prefix_of(query) &&
          (!expected.has_value() ||
           name.depth() > expected->first.depth())) {
        expected = {name, value};
      }
    }
    const auto actual = trie.lookup(query);
    ASSERT_EQ(actual.has_value(), expected.has_value());
    if (actual.has_value()) {
      EXPECT_EQ(actual->first, expected->first);
      EXPECT_EQ(actual->second, expected->second);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomNames, NameTriePropertyTest,
                         ::testing::Range(0, 6));

}  // namespace
}  // namespace lina::names
