#pragma once

#include <optional>
#include <vector>

#include "lina/exec/memo.hpp"
#include "lina/sim/fabric.hpp"
#include "lina/sim/failure_plan.hpp"

namespace lina::sim {

/// A geo-replicated name-resolution service — the paper's proposed
/// augmentation for device mobility ("a next-generation name resolution
/// service [49]", MobilityFirst's GNS). Replicas hold copies of a mobile
/// endpoint's location record; clients query their nearest replica;
/// updates land at the replica nearest the device and propagate to the
/// rest with network delay. More replicas cut lookup latency and spread
/// update load, at the price of wider (but still O(replicas), not
/// O(routers)) update fan-out.
class ResolverPool {
 public:
  /// Throws if `replicas` is empty or contains out-of-range ASes.
  /// Duplicate replica ASes are deduplicated (first occurrence kept):
  /// a pool is a set of resolver sites, and duplicates would silently
  /// inflate the update relay fan-out.
  ResolverPool(const ForwardingFabric& fabric,
               std::vector<topology::AsId> replicas);

  [[nodiscard]] std::span<const topology::AsId> replicas() const {
    return replicas_;
  }

  /// Index into replicas() of `replica`; throws std::invalid_argument if
  /// the AS hosts no replica.
  [[nodiscard]] std::size_t replica_index(topology::AsId replica) const;

  /// The nearest replica and its one-way delay, as one cached record, so
  /// the per-replica delay scan runs once per client per pool instead of
  /// once per call. delay_ms is +inf when no replica is reachable.
  struct NearestReplica {
    topology::AsId replica = 0;
    double delay_ms = 0.0;
  };

  /// The replica with the lowest path delay from `client`.
  [[nodiscard]] topology::AsId nearest_replica(topology::AsId client) const;

  /// The *live* replica (per `failures` at `time_ms`) with the lowest
  /// failure-aware path delay from `client`; nullopt when every replica is
  /// down or unreachable. This is the target a device sends its update to
  /// and the failover target a client retries against after its preferred
  /// replica stops answering. Under an empty plan every replica is live:
  /// the answer is nearest_replica() and no failover lookup is counted.
  [[nodiscard]] std::optional<topology::AsId> nearest_live_replica(
      topology::AsId client, const FailurePlan& failures,
      double time_ms) const;

  /// Places `count` replicas on the prefix-announcing ASes nearest the
  /// world metro anchors (round-robin), the natural GNS deployment.
  [[nodiscard]] static std::vector<topology::AsId> metro_placement(
      const routing::SyntheticInternet& internet, std::size_t count);

 private:
  /// The memoized scan behind nearest_replica / nearest_live_replica.
  [[nodiscard]] const NearestReplica& nearest(topology::AsId client) const;

  const ForwardingFabric* fabric_;
  std::vector<topology::AsId> replicas_;
  // Striped-shared-mutex memo (the ForwardingFabric cache idiom): pools
  // are shared across lina::exec bench cells, and the scan result is a
  // pure function of (pool, client), so caching is thread-safe and
  // thread-count-invariant.
  exec::Memo<topology::AsId, NearestReplica> nearest_cache_;
};

}  // namespace lina::sim
