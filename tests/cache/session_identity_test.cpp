// The bit-identity contract of the sim wiring: a disabled mapping cache
// (policy off, or any policy at capacity zero) must leave every
// architecture's SessionStats — and the content simulator's stats —
// bit-identical to a config that never mentions the cache, with or
// without a FailurePlan attached. Plus smoke checks that an enabled
// cache actually engages on each wired hot path.

#include <gtest/gtest.h>

#include <iterator>
#include <stdexcept>
#include <vector>

#include "lina/cache/policy.hpp"
#include "lina/sim/content_session.hpp"
#include "lina/sim/failure_plan.hpp"
#include "lina/sim/resolver_pool.hpp"
#include "lina/sim/session.hpp"

#include "../support/fixtures.hpp"
#include "../support/session_totals.hpp"

namespace lina::sim {
namespace {

using lina::testing::shared_internet;
using topology::AsId;

const ForwardingFabric& fabric() {
  static const ForwardingFabric instance(shared_internet());
  return instance;
}

AsId edge(std::size_t i) { return shared_internet().edge_ases()[i]; }

constexpr SimArchitecture kAll[] = {
    SimArchitecture::kIndirection, SimArchitecture::kNameResolution,
    SimArchitecture::kNameBased, SimArchitecture::kReplicatedResolution};

SessionConfig mobile_config() {
  static const std::vector<AsId> local =
      shared_internet().edge_ases_near(topology::metro_anchors()[0], 4);
  SessionConfig config;
  config.correspondent = edge(0);
  config.schedule = {{0.0, local[0]},
                     {2000.0, local[1]},
                     {4000.0, local[2]},
                     {6000.0, local[3]}};
  config.packet_interval_ms = 20.0;
  config.duration_ms = 8000.0;
  config.resolver_ttl_ms = 150.0;
  config.resolver_replicas =
      ResolverPool::metro_placement(shared_internet(), 6);
  return config;
}

ContentSessionConfig content_config() {
  ContentSessionConfig config;
  config.consumer = edge(0);
  config.publisher_schedule = {
      {0.0, edge(40)}, {4000.0, edge(41)}, {8000.0, edge(42)}};
  config.duration_ms = 12000.0;
  config.request_interval_ms = 10.0;
  config.catalog_segments = 500;
  config.cache_capacity = 32;
  config.seed = 7;
  return config;
}

void expect_identical(const SessionStats& a, const SessionStats& b) {
  EXPECT_EQ(a.packets_sent, b.packets_sent);
  EXPECT_EQ(a.packets_delivered, b.packets_delivered);
  EXPECT_EQ(a.packets_lost, b.packets_lost);
  EXPECT_EQ(a.control_messages, b.control_messages);
  EXPECT_EQ(a.control_retries, b.control_retries);
  EXPECT_EQ(a.packets_sent_during_failure, b.packets_sent_during_failure);
  EXPECT_EQ(a.packets_delivered_during_failure,
            b.packets_delivered_during_failure);
  // Bit-identical sample sets, not just close: the cache layer must be
  // zero-cost when disabled.
  EXPECT_EQ(a.delivery_delay_ms.sorted_samples(),
            b.delivery_delay_ms.sorted_samples());
  EXPECT_EQ(a.stretch.sorted_samples(), b.stretch.sorted_samples());
  EXPECT_EQ(a.outage_ms.sorted_samples(), b.outage_ms.sorted_samples());
  EXPECT_EQ(a.recovery_ms.sorted_samples(), b.recovery_ms.sorted_samples());
  EXPECT_EQ(a.stretch_degraded.sorted_samples(),
            b.stretch_degraded.sorted_samples());
  EXPECT_EQ(a.mapping_cache, b.mapping_cache);
}

void expect_identical(const ContentSessionStats& a,
                      const ContentSessionStats& b) {
  EXPECT_EQ(a.interests_sent, b.interests_sent);
  EXPECT_EQ(a.satisfied_from_cache, b.satisfied_from_cache);
  EXPECT_EQ(a.satisfied_from_publisher, b.satisfied_from_publisher);
  EXPECT_EQ(a.unsatisfied, b.unsatisfied);
  EXPECT_EQ(a.interest_retries, b.interest_retries);
  EXPECT_EQ(a.cache_guided_interests, b.cache_guided_interests);
  EXPECT_EQ(a.retrieval_delay_ms.sorted_samples(),
            b.retrieval_delay_ms.sorted_samples());
  EXPECT_EQ(a.mapping_cache, b.mapping_cache);
}

TEST(CacheSessionIdentityTest, DisabledCacheIsBitIdentical) {
  const SessionConfig baseline = mobile_config();
  for (const auto arch : kAll) {
    SCOPED_TRACE(sim_architecture_name(arch));
    const SessionStats reference = simulate_session(fabric(), arch, baseline);
    // All-zero counters in the baseline: the cache never engaged.
    EXPECT_EQ(reference.mapping_cache, cache::CacheStats{});

    SessionConfig off_policy = baseline;
    off_policy.mapping_cache.policy = cache::Policy::kOff;
    off_policy.mapping_cache.capacity = 4096;
    expect_identical(reference,
                     simulate_session(fabric(), arch, off_policy));

    SessionConfig zero_capacity = baseline;
    zero_capacity.mapping_cache.policy = cache::Policy::kTtlLru;
    zero_capacity.mapping_cache.capacity = 0;
    expect_identical(reference,
                     simulate_session(fabric(), arch, zero_capacity));
  }
}

TEST(CacheSessionIdentityTest, DisabledCacheIsBitIdenticalUnderFaults) {
  SessionConfig baseline = mobile_config();
  FailurePlan plan;
  plan.as_outage(baseline.schedule[1].as, 2500.0, 3500.0);
  baseline.failures = &plan;
  // Each architecture's totals under the outage, recorded from the
  // simulator when sessions without faults still ran a separate code path:
  // folding that path into this one must not move a faulted session.
  const lina::testing::SessionTotals pinned[] = {
      {400, 348, 3, 0, 0x1.044b1354c0932p+16, 0x1.5e32240fd2d4dp+11,
       0x1.3f6c47b2803cp+6},
      {400, 299, 56, 0, 0x1.70dec78c1f731p+15, 0x1.2afffffffffd6p+8,
       0x1.01c1583b7a622p+10},
      {400, 347, 864, 0, 0x1.aee92a6f1b5d6p+15, 0x1.818ea2712564fp+9,
       0x1.f4de6302061fp+7},
      {400, 286, 71, 0, 0x1.6add8cd81bdb2p+15, 0x1.1dfffffffffdfp+8,
       0x1.42c1583b7a622p+10},
  };
  static_assert(std::size(pinned) == std::size(kAll));
  for (std::size_t i = 0; i < std::size(kAll); ++i) {
    const SimArchitecture arch = kAll[i];
    SCOPED_TRACE(sim_architecture_name(arch));
    const SessionStats reference = simulate_session(fabric(), arch, baseline);
    lina::testing::expect_totals(reference, pinned[i]);
    SessionConfig off = baseline;
    off.mapping_cache.policy = cache::Policy::kOff;
    off.mapping_cache.capacity = 64;
    expect_identical(reference, simulate_session(fabric(), arch, off));
  }
}

TEST(CacheSessionIdentityTest, DisabledContentCacheIsBitIdentical) {
  const ContentSessionConfig baseline = content_config();
  const ContentSessionStats reference =
      simulate_content_session(fabric(), baseline);
  EXPECT_EQ(reference.cache_guided_interests, 0u);
  EXPECT_EQ(reference.mapping_cache, cache::CacheStats{});

  ContentSessionConfig off_policy = baseline;
  off_policy.mapping_cache.policy = cache::Policy::kOff;
  off_policy.mapping_cache.capacity = 256;
  expect_identical(reference, simulate_content_session(fabric(), off_policy));

  ContentSessionConfig zero_capacity = baseline;
  zero_capacity.mapping_cache.policy = cache::Policy::kTwoQ;
  zero_capacity.mapping_cache.capacity = 0;
  expect_identical(reference,
                   simulate_content_session(fabric(), zero_capacity));
}

TEST(CacheSessionIdentityTest, EnabledCacheEngagesOnEveryWiredHotPath) {
  SessionConfig config = mobile_config();
  config.mapping_cache.policy = cache::Policy::kTtlLru;
  config.mapping_cache.capacity = 16;
  config.mapping_cache.ttl_ms = 2000.0;
  for (const auto arch :
       {SimArchitecture::kIndirection, SimArchitecture::kNameResolution,
        SimArchitecture::kReplicatedResolution}) {
    SCOPED_TRACE(sim_architecture_name(arch));
    const SessionStats stats = simulate_session(fabric(), arch, config);
    EXPECT_GT(stats.mapping_cache.probes(), 0u);
    EXPECT_GT(stats.mapping_cache.hits, 0u);
    EXPECT_GT(stats.mapping_cache.insertions, 0u);
    // Mobility churn reached the correspondent's cache as invalidations,
    // never as capacity evictions (capacity 16 >> one device binding).
    EXPECT_GT(stats.mapping_cache.invalidations, 0u);
    EXPECT_EQ(stats.mapping_cache.evictions, 0u);
    EXPECT_GT(stats.packets_delivered, 0u);
  }
  // Name-based routing has no resolution step: the cache is ignored.
  const SessionStats name_based =
      simulate_session(fabric(), SimArchitecture::kNameBased, config);
  EXPECT_EQ(name_based.mapping_cache, cache::CacheStats{});
}

TEST(CacheSessionIdentityTest, EnabledContentCacheGuidesInterests) {
  ContentSessionConfig config = content_config();
  config.mapping_cache.policy = cache::Policy::kTtlLru;
  config.mapping_cache.capacity = 64;
  const ContentSessionStats stats =
      simulate_content_session(fabric(), config);
  EXPECT_GT(stats.mapping_cache.probes(), 0u);
  EXPECT_GT(stats.mapping_cache.hits, 0u);
  EXPECT_GT(stats.cache_guided_interests, 0u);
  // The name-update wavefront wiped the FIB cache on each publisher move.
  EXPECT_GT(stats.mapping_cache.invalidations, 0u);
  EXPECT_GT(stats.satisfied(), 0u);
}

TEST(CacheSessionIdentityTest, RejectsNonPositiveCacheTtl) {
  SessionConfig config = mobile_config();
  config.mapping_cache.policy = cache::Policy::kTtlLru;
  config.mapping_cache.capacity = 16;
  config.mapping_cache.ttl_ms = 0.0;
  EXPECT_THROW(
      simulate_session(fabric(), SimArchitecture::kIndirection, config),
      std::invalid_argument);
  ContentSessionConfig content = content_config();
  content.mapping_cache.ttl_ms = -1.0;
  EXPECT_THROW(simulate_content_session(fabric(), content),
               std::invalid_argument);
}

}  // namespace
}  // namespace lina::sim
