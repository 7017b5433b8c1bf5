#include "lina/sim/content_session.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>

#include "../support/fixtures.hpp"

namespace lina::sim {
namespace {

using lina::testing::shared_internet;
using topology::AsId;

const ForwardingFabric& fabric() {
  static const ForwardingFabric instance(shared_internet());
  return instance;
}

AsId edge(std::size_t i) { return shared_internet().edge_ases()[i]; }

ContentSessionConfig base_config() {
  ContentSessionConfig config;
  config.consumer = edge(0);
  config.publisher_schedule = {{0.0, edge(30)}};
  config.catalog_segments = 200;
  config.zipf_exponent = 1.0;
  config.request_interval_ms = 10.0;
  config.duration_ms = 5000.0;
  config.cache_capacity = 64;
  return config;
}

TEST(ContentSessionTest, Validation) {
  ContentSessionConfig config = base_config();
  config.publisher_schedule.clear();
  EXPECT_THROW((void)simulate_content_session(fabric(), config),
               std::invalid_argument);
  config = base_config();
  config.catalog_segments = 0;
  EXPECT_THROW((void)simulate_content_session(fabric(), config),
               std::invalid_argument);
  config = base_config();
  config.request_interval_ms = 0.0;
  EXPECT_THROW((void)simulate_content_session(fabric(), config),
               std::invalid_argument);
  // A NaN step compares false with its predecessor, so a `<=` order check
  // let it through.
  config = base_config();
  config.publisher_schedule.push_back(
      {std::numeric_limits<double>::quiet_NaN(), edge(31)});
  EXPECT_THROW((void)simulate_content_session(fabric(), config),
               std::invalid_argument);
}

// NaN first: it passed the old `<= 0.0` checks, so a run that accepts it
// stops at the ASSERT before an infinite duration could loop forever.
constexpr double kNonFinite[] = {std::numeric_limits<double>::quiet_NaN(),
                                 std::numeric_limits<double>::infinity(),
                                 -std::numeric_limits<double>::infinity()};

/// The std::invalid_argument message `config` is rejected with; empty if
/// the session runs.
std::string rejection(const ContentSessionConfig& config) {
  try {
    (void)simulate_content_session(fabric(), config);
  } catch (const std::invalid_argument& error) {
    return error.what();
  }
  return "";
}

TEST(ContentSessionTest, RejectsNonFiniteRequestInterval) {
  for (const double bad : kNonFinite) {
    ContentSessionConfig config = base_config();
    config.request_interval_ms = bad;
    ASSERT_NE(rejection(config).find("request_interval_ms"),
              std::string::npos)
        << bad;
  }
}

TEST(ContentSessionTest, RejectsNonFiniteDuration) {
  for (const double bad : kNonFinite) {
    ContentSessionConfig config = base_config();
    config.duration_ms = bad;
    ASSERT_NE(rejection(config).find("duration_ms"), std::string::npos)
        << bad;
  }
}

TEST(ContentSessionTest, RejectsADurationTheRequestClockNeverReaches) {
  // 1 ms steps stop advancing at 2^53 ms (2^53 + 1 rounds back), far
  // short of 2e17 ms: a request loop would never end.
  ContentSessionConfig config = base_config();
  config.request_interval_ms = 1.0;
  config.duration_ms = 2e17;
  ASSERT_NE(rejection(config).find("stops advancing"), std::string::npos);
}

TEST(ContentSessionTest, RejectsNonFiniteUpdateHop) {
  for (const double bad : kNonFinite) {
    ContentSessionConfig config = base_config();
    config.publisher_schedule.push_back({1000.0, edge(31)});
    config.update_hop_ms = bad;
    ASSERT_NE(rejection(config).find("update_hop_ms"), std::string::npos)
        << bad;
  }
}

TEST(ContentSessionTest, RejectsFailurePlanOutsideGraph) {
  // Such a fault would never apply: the session rejects it, as
  // simulate_session does.
  FailurePlan plan;
  plan.as_outage(static_cast<AsId>(shared_internet().graph().as_count()),
                 100.0, 200.0);
  ContentSessionConfig config = base_config();
  config.failures = &plan;
  EXPECT_THROW((void)simulate_content_session(fabric(), config),
               std::out_of_range);
}

TEST(ContentSessionTest, StationaryPublisherFullReachability) {
  const auto stats = simulate_content_session(fabric(), base_config());
  EXPECT_EQ(stats.interests_sent, 500u);
  EXPECT_EQ(stats.unsatisfied, 0u);
  EXPECT_NEAR(stats.reachability(), 1.0, 1e-9);
  EXPECT_GT(stats.satisfied_from_publisher, 0u);
}

TEST(ContentSessionTest, CachingAbsorbsTheZipfHead) {
  const auto cached = simulate_content_session(fabric(), base_config());
  ContentSessionConfig no_cache = base_config();
  no_cache.cache_capacity = 0;
  const auto uncached = simulate_content_session(fabric(), no_cache);

  EXPECT_GT(cached.cache_hit_ratio(), 0.3);
  EXPECT_EQ(uncached.satisfied_from_cache, 0u);
  // Cache hits terminate at (or near) the consumer: faster retrieval.
  EXPECT_LT(cached.retrieval_delay_ms.quantile(0.5),
            uncached.retrieval_delay_ms.quantile(0.5));
  // The publisher serves fewer interests.
  EXPECT_LT(cached.satisfied_from_publisher,
            uncached.satisfied_from_publisher);
}

TEST(ContentSessionTest, BiggerCachesHitMore) {
  ContentSessionConfig small = base_config();
  small.cache_capacity = 4;
  ContentSessionConfig large = base_config();
  large.cache_capacity = 128;
  const auto small_stats = simulate_content_session(fabric(), small);
  const auto large_stats = simulate_content_session(fabric(), large);
  EXPECT_GE(large_stats.cache_hit_ratio(), small_stats.cache_hit_ratio());
}

TEST(ContentSessionTest, PublisherMobilityBreaksUncachedReachability) {
  // §8: on-path caching "does not suffice to ensure reachability to at
  // least one copy" — while router beliefs are stale, only cached
  // segments survive.
  ContentSessionConfig config = base_config();
  config.publisher_schedule = {{0.0, edge(30)},
                               {1500.0, edge(80)},
                               {3000.0, edge(120)}};
  config.update_hop_ms = 60.0;  // slow convergence
  const auto stats = simulate_content_session(fabric(), config);
  EXPECT_GT(stats.unsatisfied, 0u);
  EXPECT_LT(stats.reachability(), 1.0);
  // But the cached head keeps serving: hits continue despite staleness.
  EXPECT_GT(stats.satisfied_from_cache, 0u);
}

TEST(ContentSessionTest, FastUpdatesRestoreReachability) {
  ContentSessionConfig slow = base_config();
  slow.publisher_schedule = {{0.0, edge(30)}, {2500.0, edge(80)}};
  slow.update_hop_ms = 80.0;
  ContentSessionConfig fast = slow;
  fast.update_hop_ms = 1.0;
  const auto slow_stats = simulate_content_session(fabric(), slow);
  const auto fast_stats = simulate_content_session(fabric(), fast);
  EXPECT_GE(fast_stats.reachability(), slow_stats.reachability());
}

TEST(ContentSessionTest, DeterministicForSeed) {
  const auto a = simulate_content_session(fabric(), base_config());
  const auto b = simulate_content_session(fabric(), base_config());
  EXPECT_EQ(a.satisfied_from_cache, b.satisfied_from_cache);
  EXPECT_EQ(a.satisfied_from_publisher, b.satisfied_from_publisher);
}

TEST(ContentSessionTest, SteeperPopularityCachesBetter) {
  ContentSessionConfig uniformish = base_config();
  uniformish.zipf_exponent = 0.2;
  ContentSessionConfig steep = base_config();
  steep.zipf_exponent = 1.4;
  const auto flat_stats = simulate_content_session(fabric(), uniformish);
  const auto steep_stats = simulate_content_session(fabric(), steep);
  EXPECT_GT(steep_stats.cache_hit_ratio(), flat_stats.cache_hit_ratio());
}

}  // namespace
}  // namespace lina::sim
