// Randomized differential suite for the arena-backed LPM engines: replays
// seeded insert/overwrite streams against the production tries and the
// reference (pre-optimisation) implementations in
// tests/support/reference_tries.hpp and asserts every observable agrees.
// IpTrie only builds, so its lookups are asked of the frozen trie it emits:
// `lookup`, `lookup_value` and the batched `lookup_many` each answer every
// query of the stream as the reference does. The name trie is checked on
// lookups, exact matches, visitation order, lpm_compressed_size() against
// the reference's recount, and rebuilds from its serialized form
// (for_each_edge / slot_value -> from_edges).

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "lina/names/content_name.hpp"
#include "lina/names/name_trie.hpp"
#include "lina/net/ip_trie.hpp"
#include "lina/net/ipv4.hpp"
#include "reference_tries.hpp"

namespace {

using lina::names::ContentName;
using lina::names::NameTrie;
using lina::net::IpTrie;
using lina::net::Ipv4Address;
using lina::net::Prefix;
using lina::testref::LegacyIpTrie;
using lina::testref::LegacyNameTrie;

constexpr std::size_t kOps = 100000;
constexpr std::size_t kAuditEvery = 4096;  // full-table audits are O(n)

Prefix random_prefix(std::mt19937_64& rng) {
  // Lengths cluster around /16../24 like real tables; a narrow address
  // pool forces nesting and overwrites.
  const unsigned length = 8 + static_cast<unsigned>(rng() % 17);
  const auto addr = static_cast<std::uint32_t>(rng() % (1u << 20)) << 12;
  return Prefix(Ipv4Address(addr), length);
}

Ipv4Address random_addr(std::mt19937_64& rng) {
  return Ipv4Address(static_cast<std::uint32_t>(rng() % (1u << 20)) << 12);
}

class IpTrieDifferentialTest : public ::testing::TestWithParam<std::uint64_t> {
};

/// Checks the builder against the reference, then answers every queued
/// query (plus 64 fresh probes) through the three frozen lookup forms and
/// drains the queue.
void audit_ip(const IpTrie<int>& trie, const LegacyIpTrie<int>& ref,
              std::vector<Ipv4Address>& queries) {
  ASSERT_EQ(trie.size(), ref.size());
  // Structural bound: a path-compressed trie with n entries has at most
  // n leaves + n-1 branch points + the root.
  ASSERT_LE(trie.live_nodes(), 2 * trie.size() + 1);

  std::vector<std::pair<Prefix, int>> got;
  std::vector<std::pair<Prefix, int>> want;
  trie.visit([&](const Prefix& p, int v) { got.emplace_back(p, v); });
  ref.visit([&](const Prefix& p, int v) { want.emplace_back(p, v); });
  ASSERT_EQ(got, want);

  const auto frozen = trie.freeze();
  ASSERT_EQ(frozen.size(), ref.size());
  std::mt19937_64 probe_rng(trie.size() * 2654435761u + 17);
  for (int i = 0; i < 64; ++i) queries.push_back(random_addr(probe_rng));
  std::vector<const int*> batch(queries.size());
  frozen.lookup_many(queries, batch);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const auto expected = ref.lookup(queries[i]);
    ASSERT_EQ(frozen.lookup(queries[i]), expected);
    const int* one = frozen.lookup_value(queries[i]);
    if (expected.has_value()) {
      ASSERT_NE(one, nullptr);
      ASSERT_EQ(*one, expected->second);
      ASSERT_NE(batch[i], nullptr);
      ASSERT_EQ(*batch[i], expected->second);
    } else {
      ASSERT_EQ(one, nullptr);
      ASSERT_EQ(batch[i], nullptr);
    }
  }
  queries.clear();
}

TEST_P(IpTrieDifferentialTest, MatchesReferenceOverRandomOps) {
  std::mt19937_64 rng(GetParam());
  IpTrie<int> trie;
  LegacyIpTrie<int> ref;
  std::vector<Prefix> inserted;
  // Lookups queue until the next audit freezes the table.
  std::vector<Ipv4Address> queries;

  for (std::size_t op = 0; op < kOps; ++op) {
    const auto kind = rng() % 10;
    // Few distinct values so ancestors frequently subsume descendants.
    const int value = static_cast<int>(rng() % 4);
    if (kind < 5) {
      const Prefix p = random_prefix(rng);
      ASSERT_EQ(trie.insert(p, value), ref.insert(p, value));
      inserted.push_back(p);
    } else if (kind < 7 && !inserted.empty()) {
      // Overwrite a stored entry, as a rename exception or a re-announce
      // does.
      const Prefix& p = inserted[rng() % inserted.size()];
      ASSERT_FALSE(trie.insert(p, value));
      ASSERT_FALSE(ref.insert(p, value));
    } else if (kind < 9) {
      queries.push_back(random_addr(rng));
    } else {
      // A prefix's first address: a probe on an entry's edge.
      queries.push_back(random_prefix(rng).network());
    }
    ASSERT_EQ(trie.size(), ref.size());
    if ((op + 1) % kAuditEvery == 0) audit_ip(trie, ref, queries);
  }
  audit_ip(trie, ref, queries);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IpTrieDifferentialTest,
                         ::testing::Values(1u, 7u, 1337u));

ContentName random_name(std::mt19937_64& rng) {
  // ~40 distinct components over depth 1..4: deep nesting and frequent
  // shared prefixes, so subsumption gets exercised.
  const std::size_t depth = 1 + rng() % 4;
  std::vector<std::string> parts;
  parts.reserve(depth);
  for (std::size_t i = 0; i < depth; ++i) {
    parts.push_back("c" + std::to_string(rng() % 10 + 10 * i));
  }
  return ContentName(std::move(parts));
}

class NameTrieDifferentialTest
    : public ::testing::TestWithParam<std::uint64_t> {};

void audit_name(const NameTrie<int>& trie, const LegacyNameTrie<int>& ref) {
  ASSERT_EQ(trie.size(), ref.size());
  ASSERT_EQ(trie.lpm_compressed_size(), ref.lpm_compressed_size());

  std::vector<std::pair<ContentName, int>> got;
  std::vector<std::pair<ContentName, int>> want;
  trie.visit([&](const ContentName& n, int v) { got.emplace_back(n, v); });
  ref.visit([&](const ContentName& n, int v) { want.emplace_back(n, v); });
  ASSERT_EQ(got, want);

  std::vector<NameTrie<int>::Edge> edges;
  trie.for_each_edge([&](const NameTrie<int>::Edge& e) { edges.push_back(e); });
  std::vector<std::optional<int>> values;
  for (std::size_t s = 0; s < trie.live_nodes(); ++s) {
    values.push_back(trie.slot_value(s));
  }
  const auto rebuilt = NameTrie<int>::from_edges(std::move(values), edges);
  ASSERT_EQ(rebuilt.size(), trie.size());
  ASSERT_EQ(rebuilt.lpm_compressed_size(), trie.lpm_compressed_size());
  ASSERT_EQ(rebuilt.table_bytes(), trie.table_bytes());
  std::mt19937_64 probe_rng(trie.size() * 2654435761u + 29);
  for (int i = 0; i < 64; ++i) {
    const ContentName name = random_name(probe_rng);
    ASSERT_EQ(rebuilt.lookup(name), ref.lookup(name));
  }
}

TEST_P(NameTrieDifferentialTest, MatchesReferenceOverRandomOps) {
  std::mt19937_64 rng(GetParam());
  NameTrie<int> trie;
  LegacyNameTrie<int> ref;
  std::vector<ContentName> inserted;

  for (std::size_t op = 0; op < kOps; ++op) {
    const auto kind = rng() % 10;
    const int value = static_cast<int>(rng() % 4);
    if (kind < 5) {
      const ContentName n = random_name(rng);
      ASSERT_EQ(trie.insert(n, value), ref.insert(n, value));
      inserted.push_back(n);
    } else if (kind < 7 && !inserted.empty()) {
      const ContentName& n = inserted[rng() % inserted.size()];
      ASSERT_FALSE(trie.insert(n, value));
      ASSERT_FALSE(ref.insert(n, value));
    } else if (kind < 9) {
      const ContentName n = random_name(rng);
      ASSERT_EQ(trie.lookup(n), ref.lookup(n));
    } else {
      const ContentName n = random_name(rng);
      const int* got = trie.exact(n);
      const int* want = ref.exact(n);
      ASSERT_EQ(got != nullptr, want != nullptr);
      if (got != nullptr) {
        ASSERT_EQ(*got, *want);
      }
    }
    ASSERT_EQ(trie.size(), ref.size());
    if ((op + 1) % kAuditEvery == 0) audit_name(trie, ref);
  }
  audit_name(trie, ref);
}

INSTANTIATE_TEST_SUITE_P(Seeds, NameTrieDifferentialTest,
                         ::testing::Values(2u, 11u, 4242u));

}  // namespace
