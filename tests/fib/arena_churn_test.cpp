// Arena bound regression for the build-once IP trie: inserts and
// overwrites only ever add split points where two stored prefixes
// diverge, so the arena holds at most 2·size() + 1 nodes however the
// entries arrive.

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

#include "lina/net/ip_trie.hpp"
#include "lina/net/ipv4.hpp"

namespace {

using lina::net::IpTrie;
using lina::net::Ipv4Address;
using lina::net::Prefix;

std::vector<Prefix> churn_prefixes(std::uint64_t seed, std::size_t count) {
  std::mt19937_64 rng(seed);
  std::vector<Prefix> prefixes;
  prefixes.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const unsigned length = 8 + static_cast<unsigned>(rng() % 17);
    prefixes.emplace_back(
        Ipv4Address(static_cast<std::uint32_t>(rng())), length);
  }
  return prefixes;
}

TEST(IpTrieArenaChurnTest, LiveNodesStayWithinStructuralBound) {
  IpTrie<int> trie;
  std::mt19937_64 rng(3);
  const auto prefixes = churn_prefixes(3, 2048);
  for (std::size_t i = 0; i < prefixes.size(); ++i) {
    trie.insert(prefixes[i], static_cast<int>(i % 5));
    // Overwrite an earlier entry now and then: no new node.
    if (rng() % 3 == 0) trie.insert(prefixes[rng() % (i + 1)], 7);
    ASSERT_LE(trie.live_nodes(), 2 * trie.size() + 1);
  }
}

}  // namespace
