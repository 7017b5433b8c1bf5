#include "lina/sim/resolver_pool.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "lina/obs/metrics.hpp"
#include "lina/prof/prof.hpp"

namespace lina::sim {

using topology::AsId;

ResolverPool::ResolverPool(const ForwardingFabric& fabric,
                           std::vector<AsId> replicas)
    : fabric_(&fabric), replicas_(std::move(replicas)) {
  if (replicas_.empty())
    throw std::invalid_argument("ResolverPool: no replicas");
  for (const AsId replica : replicas_) {
    if (replica >= fabric.internet().graph().as_count())
      throw std::out_of_range("ResolverPool: replica AS out of range");
  }
  // Deduplicate, keeping first occurrences in order: duplicates would
  // silently inflate the relay fan-out.
  std::vector<AsId> unique;
  unique.reserve(replicas_.size());
  for (const AsId replica : replicas_) {
    if (std::find(unique.begin(), unique.end(), replica) == unique.end())
      unique.push_back(replica);
  }
  replicas_ = std::move(unique);
}

std::size_t ResolverPool::replica_index(AsId replica) const {
  const auto it = std::find(replicas_.begin(), replicas_.end(), replica);
  if (it == replicas_.end())
    throw std::invalid_argument("ResolverPool: AS hosts no replica");
  return static_cast<std::size_t>(it - replicas_.begin());
}

const ResolverPool::NearestReplica& ResolverPool::nearest(
    AsId client) const {
  return nearest_cache_.get_or_build(client, [&]() -> NearestReplica {
    PROF_SPAN("lina.resolver.lookup");
    NearestReplica entry{replicas_.front(),
                         std::numeric_limits<double>::infinity()};
    for (const AsId replica : replicas_) {
      const auto delay = fabric_->path_delay_ms(client, replica);
      if (delay.has_value() && *delay < entry.delay_ms) {
        entry.delay_ms = *delay;
        entry.replica = replica;
      }
    }
    if (entry.delay_ms < std::numeric_limits<double>::infinity())
      obs::metric::resolver_lookup_delay_ms().record(entry.delay_ms);
    return entry;
  });
}

AsId ResolverPool::nearest_replica(AsId client) const {
  obs::metric::resolver_lookups().add();
  return nearest(client).replica;
}

std::optional<AsId> ResolverPool::nearest_live_replica(
    AsId client, const FailurePlan& failures, double time_ms) const {
  if (failures.empty()) {
    obs::metric::resolver_lookups().add();
    const NearestReplica& entry = nearest(client);
    if (std::isinf(entry.delay_ms)) return std::nullopt;
    return entry.replica;
  }
  PROF_SPAN("lina.resolver.failover_lookup");
  obs::metric::resolver_failover_lookups().add();
  prof::instant("lina.sim.resolver.failover_lookup", time_ms,
                static_cast<double>(client));
  std::optional<AsId> best;
  double best_delay = std::numeric_limits<double>::infinity();
  for (const AsId replica : replicas_) {
    if (failures.resolver_down(replica, time_ms)) continue;
    const auto delay =
        fabric_->path_delay_ms(client, replica, failures, time_ms);
    if (delay.has_value() && *delay < best_delay) {
      best_delay = *delay;
      best = replica;
    }
  }
  return best;
}

std::vector<AsId> ResolverPool::metro_placement(
    const routing::SyntheticInternet& internet, std::size_t count) {
  std::vector<AsId> out;
  const auto anchors = topology::metro_anchors();
  std::size_t anchor = 0;
  while (out.size() < count) {
    const auto near =
        internet.edge_ases_near(anchors[anchor % anchors.size()],
                                1 + anchor / anchors.size());
    const AsId candidate = near.back();
    if (std::find(out.begin(), out.end(), candidate) == out.end()) {
      out.push_back(candidate);
    }
    ++anchor;
    if (anchor > count * anchors.size() + anchors.size()) break;  // safety
  }
  return out;
}

}  // namespace lina::sim
