#pragma once

#include <cstdint>
#include <vector>

#include "lina/sim/fabric.hpp"
#include "lina/sim/session.hpp"
#include "lina/stats/cdf.hpp"
#include "lina/stats/rng.hpp"

namespace lina::sim {

/// An NDN-style content-retrieval session: a consumer issues interests for
/// Zipf-popular segments of a named catalog; routers forward interests
/// toward their current belief of the publisher's attachment (flooded
/// name-update wavefront, as in name-based routing); data returns along
/// the interest path, leaving copies in per-router LRU content stores.
///
/// This exercises the paper's §8 discussion: on-path caching absorbs the
/// popular head even across publisher mobility, but "does not suffice to
/// ensure reachability to at least one copy" — uncached segments are lost
/// while router beliefs are stale.
struct ContentSessionConfig {
  topology::AsId consumer = 0;
  std::vector<MobilityStep> publisher_schedule;  // first step at 0

  std::size_t catalog_segments = 1000;
  double zipf_exponent = 1.0;

  double request_interval_ms = 10.0;
  double duration_ms = 20000.0;

  std::size_t cache_capacity = 64;  // per router; 0 disables caching
  double update_hop_ms = 5.0;       // name-update wavefront speed
  std::size_t interest_ttl_hops = 64;

  std::uint64_t seed = 1;

  /// Fault injection. nullptr runs the session under the shared empty
  /// plan (no_failures()), the failure-free simulator; with faults active,
  /// interests route around dead ASes / cut links (a copy in an on-path
  /// content store still satisfies them — caching as resilience, §8) and
  /// die at a dark publisher. The plan must outlive the call.
  const FailurePlan* failures = nullptr;

  /// Consumer-side interest retransmission under injected faults: an
  /// interest that dies (dark AS, no route, stale belief at a publisher
  /// that moved) is reissued from the consumer on this backoff, probing
  /// for fault repair or belief convergence. Only consulted when a
  /// non-empty FailurePlan is attached — the failure-free simulator's
  /// staleness losses (the §8 phenomenon) are left untouched.
  RetryPolicy retry;

  /// Consumer-side FIB-miss resolution cache, keyed by segment. Off by
  /// default (bit-identical to the pre-cache simulator). When enabled, a
  /// publisher-satisfied retrieval installs segment -> publisher location
  /// at data arrival; a later interest for a cached segment skips belief
  /// forwarding and routes straight toward the cached location (content
  /// stores on the way still answer). A stale entry (publisher moved) is
  /// invalidated when the directed interest finds nobody home. The name-
  /// update wavefront is the churn stream: when a move's flood reaches the
  /// consumer, every cached location is invalidated (the whole catalog
  /// moved, so ChurnAction is ignored — invalidation is the only correct
  /// response). Activity lands in ContentSessionStats::mapping_cache.
  cache::CacheConfig mapping_cache;
};

struct ContentSessionStats {
  std::size_t interests_sent = 0;
  std::size_t satisfied_from_cache = 0;
  std::size_t satisfied_from_publisher = 0;
  std::size_t unsatisfied = 0;

  /// Interest retransmissions under faults (attempts beyond the first per
  /// requested segment); always 0 without a FailurePlan.
  std::size_t interest_retries = 0;

  /// Interests routed by a mapping-cache hit instead of router beliefs;
  /// always 0 when ContentSessionConfig::mapping_cache is off.
  std::size_t cache_guided_interests = 0;

  stats::EmpiricalCdf retrieval_delay_ms;

  /// Consumer FIB-cache counters; all zero when the cache is disabled.
  cache::CacheStats mapping_cache;

  [[nodiscard]] std::size_t satisfied() const {
    return satisfied_from_cache + satisfied_from_publisher;
  }
  [[nodiscard]] double reachability() const {
    return interests_sent == 0
               ? 0.0
               : static_cast<double>(satisfied()) /
                     static_cast<double>(interests_sent);
  }
  [[nodiscard]] double cache_hit_ratio() const {
    return satisfied() == 0
               ? 0.0
               : static_cast<double>(satisfied_from_cache) /
                     static_cast<double>(satisfied());
  }
};

/// Runs one consumer->publisher content session over the fabric.
/// Throws std::invalid_argument on malformed configs, naming the field
/// when a timing or delay is non-finite or non-positive.
[[nodiscard]] ContentSessionStats simulate_content_session(
    const ForwardingFabric& fabric, const ContentSessionConfig& config);

}  // namespace lina::sim
