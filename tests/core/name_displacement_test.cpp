#include "lina/core/name_displacement.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string_view>

#include "../support/fixtures.hpp"
#include "../support/reference_best_port.hpp"
#include "lina/exec/thread_pool.hpp"
#include "lina/routing/name_fib.hpp"

namespace lina::core {
namespace {

using lina::testing::shared_content_catalog;
using lina::testing::shared_internet;

const std::vector<RenameEvent>& events() {
  static const std::vector<RenameEvent> result = [] {
    stats::Rng rng(21, "renames");
    return generate_rename_events(shared_content_catalog().popular, 200,
                                  rng);
  }();
  return result;
}

/// Independent reference: per router, a NameFib seeded in catalog order
/// through the reference trie and the written-out best-entry rule, then the
/// renames processed in order.
std::vector<RenameDisplacementResult> reference_rename_displacement(
    std::span<const routing::VantageRouter> routers,
    std::span<const mobility::ContentTrace> catalog,
    std::span<const RenameEvent> renames) {
  std::vector<RenameDisplacementResult> out;
  for (const routing::VantageRouter& router : routers) {
    const auto reference = lina::testing::reference_trie(router.fib());
    routing::NameFib fib;
    for (const mobility::ContentTrace& trace : catalog) {
      const auto best = lina::testing::reference_best_entry(
          reference, trace.final_addresses());
      if (best) fib.announce(trace.name(), best->port);
    }
    RenameDisplacementResult result;
    result.updates.router = std::string(router.name());
    result.fib_entries_before = fib.size();
    for (const RenameEvent& event : renames) {
      if (!fib.port_for(event.from)) continue;
      ++result.updates.events;
      if (fib.process_rename(event.from, event.to)) ++result.updates.updates;
    }
    result.fib_entries_after = fib.size();
    out.push_back(std::move(result));
  }
  return out;
}

/// FNV-1a over every router's name and counts, in router order.
std::uint64_t digest(const std::vector<RenameDisplacementResult>& results) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h = (h ^ ((v >> (8 * i)) & 0xff)) * 0x100000001b3ull;
    }
  };
  for (const RenameDisplacementResult& r : results) {
    for (const char c : std::string_view(r.updates.router)) {
      mix(static_cast<unsigned char>(c));
    }
    mix(r.updates.events);
    mix(r.updates.updates);
    mix(r.fib_entries_before);
    mix(r.fib_entries_after);
  }
  return h;
}

TEST(RenameGenerationTest, ProducesCrossHierarchyRenames) {
  ASSERT_GT(events().size(), 100u);
  for (const RenameEvent& event : events()) {
    EXPECT_GE(event.from.depth(), 3u);
    EXPECT_EQ(event.to.depth(), 3u);
    // The new parent is a different apex.
    EXPECT_NE(event.from.parent(), event.to.parent());
    // The leaf keeps the content's identity (possibly disambiguated when
    // the new hierarchy already uses that label).
    const std::string from_leaf(event.from.components().back());
    const std::string to_leaf(event.to.components().back());
    EXPECT_EQ(to_leaf.rfind(from_leaf, 0), 0u)
        << from_leaf << " vs " << to_leaf;
  }
}

TEST(RenameGenerationTest, TargetsAreUnique) {
  std::set<names::ContentName> targets;
  for (const RenameEvent& event : events()) targets.insert(event.to);
  EXPECT_EQ(targets.size(), events().size());
}

TEST(RenameGenerationTest, DeterministicForSeed) {
  stats::Rng rng1(21, "renames");
  stats::Rng rng2(21, "renames");
  const auto a =
      generate_rename_events(shared_content_catalog().popular, 50, rng1);
  const auto b =
      generate_rename_events(shared_content_catalog().popular, 50, rng2);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].from, b[i].from);
    EXPECT_EQ(a[i].to, b[i].to);
  }
}

TEST(RenameGenerationTest, EmptyCatalog) {
  stats::Rng rng(1);
  EXPECT_TRUE(generate_rename_events({}, 10, rng).empty());
}

TEST(RenameDisplacementTest, PerRouterResults) {
  const auto results = evaluate_rename_displacement(
      shared_internet().vantages(), shared_content_catalog().popular,
      events());
  ASSERT_EQ(results.size(), shared_internet().vantages().size());
  for (const auto& result : results) {
    EXPECT_EQ(result.updates.events, events().size());
    EXPECT_LE(result.updates.updates, result.updates.events);
    // Exceptions are exactly the added entries.
    EXPECT_EQ(result.fib_entries_after - result.fib_entries_before,
              result.updates.updates);
    EXPECT_GT(result.fib_entries_before, 0u);
  }
}

TEST(RenameDisplacementTest, SomeRoutersDisplacedSomeNot) {
  // Cross-hierarchy renames displace routers whose ports differ between
  // the hierarchies; routers with near-uniform port maps (remote edges)
  // are barely touched.
  const auto results = evaluate_rename_displacement(
      shared_internet().vantages(), shared_content_catalog().popular,
      events());
  double max_rate = 0.0, min_rate = 1.0;
  for (const auto& result : results) {
    max_rate = std::max(max_rate, result.updates.rate());
    min_rate = std::min(min_rate, result.updates.rate());
  }
  EXPECT_GT(max_rate, 0.2);
  EXPECT_LT(min_rate, max_rate);
}

TEST(RenameDisplacementTest, MatchesReferenceAtAnyThreadCount) {
  lina::testing::ThreadCountGuard guard;
  const auto routers = shared_internet().vantages();
  const auto& catalog = shared_content_catalog().popular;
  const auto want = reference_rename_displacement(routers, catalog, events());
  for (const std::size_t threads : {1, 4}) {
    exec::set_default_threads(threads);
    SCOPED_TRACE(threads);
    const auto got = evaluate_rename_displacement(routers, catalog, events());
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t r = 0; r < want.size(); ++r) {
      const std::string& router = want[r].updates.router;
      EXPECT_EQ(got[r].updates.router, router);
      EXPECT_EQ(got[r].updates.events, want[r].updates.events) << router;
      EXPECT_EQ(got[r].updates.updates, want[r].updates.updates) << router;
      EXPECT_EQ(got[r].fib_entries_before, want[r].fib_entries_before)
          << router;
      EXPECT_EQ(got[r].fib_entries_after, want[r].fib_entries_after)
          << router;
    }
    // Recorded from the serial evaluator over a memoized live-FIB resolver.
    EXPECT_EQ(digest(got), 0xca5e23efdd904a95ull);
  }
}

TEST(RenameDisplacementTest, NoEventsNoUpdates) {
  const auto results = evaluate_rename_displacement(
      shared_internet().vantages(), shared_content_catalog().popular, {});
  for (const auto& result : results) {
    EXPECT_EQ(result.updates.events, 0u);
    EXPECT_EQ(result.fib_entries_before, result.fib_entries_after);
  }
}

}  // namespace
}  // namespace lina::core
