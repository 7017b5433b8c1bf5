#include "lina/core/aggregateability.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "../support/fixtures.hpp"
#include "../support/reference_best_port.hpp"
#include "lina/exec/thread_pool.hpp"

namespace lina::core {
namespace {

using lina::testing::shared_content_catalog;
using lina::testing::shared_internet;

/// Independent reference: per router, a plain loop over the reference trie,
/// the written-out best-entry rule and a NameTrie filled in catalog order.
std::vector<AggregateabilityResult> reference_aggregateability(
    std::span<const routing::VantageRouter> routers,
    std::span<const mobility::ContentTrace> traces) {
  std::vector<AggregateabilityResult> out;
  for (const routing::VantageRouter& router : routers) {
    const auto fib = lina::testing::reference_trie(router.fib());
    names::NameTrie<routing::Port> table;
    for (const mobility::ContentTrace& trace : traces) {
      const auto best = lina::testing::reference_best_entry(
          fib, trace.final_addresses());
      if (best.has_value()) table.insert(trace.name(), best->port);
    }
    out.push_back(AggregateabilityResult{std::string(router.name()),
                                         table.size(),
                                         table.lpm_compressed_size(),
                                         table.table_bytes()});
  }
  return out;
}

void expect_same_results(const std::vector<AggregateabilityResult>& got,
                         const std::vector<AggregateabilityResult>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t r = 0; r < want.size(); ++r) {
    EXPECT_EQ(got[r].router, want[r].router);
    EXPECT_EQ(got[r].complete_entries, want[r].complete_entries)
        << want[r].router;
    EXPECT_EQ(got[r].lpm_entries, want[r].lpm_entries) << want[r].router;
    EXPECT_EQ(got[r].table_bytes, want[r].table_bytes) << want[r].router;
  }
}

TEST(AggregateabilityResultTest, RatioArithmetic) {
  const AggregateabilityResult r{"x", 100, 20};
  EXPECT_DOUBLE_EQ(r.ratio(), 5.0);
  const AggregateabilityResult zero{"x", 0, 0};
  EXPECT_DOUBLE_EQ(zero.ratio(), 0.0);
}

TEST(AggregateabilityTest, OneRowPerRouter) {
  const auto results = evaluate_aggregateability(
      shared_internet().vantages(), shared_content_catalog().popular);
  EXPECT_EQ(results.size(), shared_internet().vantages().size());
}

TEST(AggregateabilityTest, CompressedNeverExceedsComplete) {
  const auto results = evaluate_aggregateability(
      shared_internet().vantages(), shared_content_catalog().popular);
  for (const auto& r : results) {
    EXPECT_LE(r.lpm_entries, r.complete_entries) << r.router;
    EXPECT_GE(r.lpm_entries, 1u) << r.router;
  }
}

TEST(AggregateabilityTest, PopularContentAggregatesSubstantially) {
  // Figure 12: aggregateability between 2x and 16x across routers.
  const auto results = evaluate_aggregateability(
      shared_internet().vantages(), shared_content_catalog().popular);
  double max_ratio = 0.0;
  for (const auto& r : results) {
    EXPECT_GT(r.ratio(), 1.0) << r.router;
    max_ratio = std::max(max_ratio, r.ratio());
  }
  EXPECT_GT(max_ratio, 2.0);
}

TEST(AggregateabilityTest, UnpopularContentBarelyAggregates) {
  // §7.3: unpopular domains have hardly any subdomains, so content routers
  // nominally store one entry per name.
  const auto popular = evaluate_aggregateability(
      shared_internet().vantages(), shared_content_catalog().popular);
  const auto unpopular = evaluate_aggregateability(
      shared_internet().vantages(), shared_content_catalog().unpopular);
  for (std::size_t i = 0; i < popular.size(); ++i) {
    EXPECT_GT(popular[i].ratio(), unpopular[i].ratio())
        << popular[i].router;
    EXPECT_LT(unpopular[i].ratio(), 1.6) << unpopular[i].router;
  }
}

TEST(AggregateabilityTest, CompleteTableCountsRoutedNames) {
  const auto results = evaluate_aggregateability(
      shared_internet().vantages(), shared_content_catalog().popular);
  // Every catalog address is announced, so every name must be present.
  for (const auto& r : results) {
    EXPECT_EQ(r.complete_entries, shared_content_catalog().popular.size())
        << r.router;
  }
}

TEST(AggregateabilityTest, EmptyCatalog) {
  const auto results =
      evaluate_aggregateability(shared_internet().vantages(), {});
  for (const auto& r : results) {
    EXPECT_EQ(r.complete_entries, 0u);
    EXPECT_EQ(r.lpm_entries, 0u);
  }
}

TEST(AggregateabilityTest, MatchesReferenceAtAnyThreadCount) {
  lina::testing::ThreadCountGuard guard;
  const auto routers = shared_internet().vantages();
  for (const auto* part : {&shared_content_catalog().popular,
                           &shared_content_catalog().unpopular}) {
    const auto want = reference_aggregateability(routers, *part);
    for (const std::size_t threads : {1, 4}) {
      exec::set_default_threads(threads);
      SCOPED_TRACE(threads);
      expect_same_results(evaluate_aggregateability(routers, *part), want);
    }
  }
}

TEST(AggregateabilityTest, BatchedAccumulatorMatchesOneShot) {
  const auto routers = shared_internet().vantages();
  const std::span<const mobility::ContentTrace> traces =
      shared_content_catalog().popular;
  const auto want = evaluate_aggregateability(routers, traces);
  for (const std::size_t batch : {std::size_t{1}, std::size_t{7},
                                  traces.size()}) {
    SCOPED_TRACE(batch);
    AggregateabilityAccumulator accumulator(routers);
    for (std::size_t i = 0; i < traces.size(); i += batch) {
      accumulator.accumulate(
          traces.subspan(i, std::min(batch, traces.size() - i)));
    }
    expect_same_results(accumulator.finish(), want);
  }
}

}  // namespace
}  // namespace lina::core
