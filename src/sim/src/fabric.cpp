#include "lina/sim/fabric.hpp"

#include <algorithm>
#include <deque>
#include <limits>
#include <stdexcept>
#include <utility>

#include "lina/obs/metrics.hpp"
#include "lina/prof/prof.hpp"
#include "lina/routing/policy_routing.hpp"
#include "lina/sim/failure_plan.hpp"
#include "lina/topology/geo.hpp"
#include "lina/topology/graph.hpp"

namespace lina::sim {

using topology::AsId;

namespace {
constexpr std::uint32_t kUnreached = UINT32_MAX;
constexpr double kUnroutable = std::numeric_limits<double>::infinity();
}  // namespace

ForwardingFabric::ForwardingFabric(const routing::SyntheticInternet& internet,
                                   FabricConfig config)
    : internet_(&internet),
      config_(config),
      route_rows_(internet.graph().as_count()),
      bfs_rows_(internet.graph().as_count()) {}

void ForwardingFabric::check_range(AsId a, AsId b, const char* what) const {
  const std::size_t count = internet_->graph().as_count();
  if (a >= count || b >= count) throw std::out_of_range(what);
}

std::optional<Hop> ForwardingFabric::RouteRow::hop(AsId u) const {
  if (next[u] == topology::kNoNode) return std::nullopt;
  return Hop{next[u], link_ms[u]};
}

std::optional<double> ForwardingFabric::RouteRow::delay(AsId u) const {
  if (path_ms[u] == kUnroutable) return std::nullopt;
  return path_ms[u];
}

template <typename Down>
ForwardingFabric::RouteRow ForwardingFabric::build_route_row(
    const topology::AsGraph& graph, AsId dest, Down&& down) const {
  const std::size_t count = graph.as_count();
  RouteRow row;
  row.next.assign(count, topology::kNoNode);
  row.link_ms.assign(count, 0.0);
  row.path_ms.assign(count, kUnroutable);
  row.hops.assign(count, 0);
  if (!down(dest)) {
    const routing::PolicyRoutes routes(graph, dest);
    row.next[dest] = dest;
    for (AsId u = 0; u < count; ++u) {
      if (u == dest || down(u)) continue;
      const auto path = routes.best_path(u);
      if (path.has_value() && !path->empty()) row.next[u] = path->next_hop();
    }
  }
  for (AsId u = 0; u < count; ++u) {
    if (row.next[u] != topology::kNoNode)
      row.link_ms[u] = link_delay_ms(u, row.next[u]);
  }
  // Each path is summed from u toward dest, never reused from the next
  // hop's suffix sum: a suffix reuse would reassociate the addition and
  // move path_delay_ms off the hop-by-hop sum in its last bits.
  for (AsId u = 0; u < count; ++u) {
    double total = 0.0;
    std::uint32_t hops = 0;
    AsId current = u;
    while (current != dest) {
      const AsId hop = row.next[current];
      if (hop == topology::kNoNode) {
        ++hops;  // the query that found no route
        break;
      }
      total += row.link_ms[current];
      current = hop;
      if (++hops > count) {
        hops = kLoop;
        break;
      }
    }
    row.hops[u] = hops;
    if (current == dest) row.path_ms[u] = total;
  }
  return row;
}

const ForwardingFabric::RouteRow& ForwardingFabric::route_row(
    AsId dest) const {
  return route_rows_.get_or_build(dest, [&] {
    PROF_SPAN("lina.fabric.route_build");
    return build_route_row(internet_->graph(), dest,
                           [](AsId) { return false; });
  });
}

std::optional<Hop> ForwardingFabric::hop_toward(AsId at, AsId dest) const {
  check_range(at, dest, "ForwardingFabric::hop_toward");
  obs::metric::fabric_next_hop_queries().add();
  return route_row(dest).hop(at);
}

double ForwardingFabric::link_delay_ms(AsId a, AsId b) const {
  const double propagation = topology::propagation_delay_ms(
      internet_->graph().location(a), internet_->graph().location(b),
      config_.inflation);
  return std::max(config_.min_link_ms, propagation + config_.per_hop_ms);
}

const ForwardingFabric::RouteRow& ForwardingFabric::path_row(AsId from,
                                                             AsId to) const {
  const RouteRow& row = route_row(to);
  if (row.hops[from] == kLoop)
    throw std::logic_error("ForwardingFabric: routing loop");
  // Counted as the next_hop queries the hop-by-hop walk stands for.
  obs::metric::fabric_next_hop_queries().add(row.hops[from]);
  return row;
}

std::optional<double> ForwardingFabric::path_delay_ms(AsId from,
                                                      AsId to) const {
  check_range(from, to, "ForwardingFabric::path_delay_ms");
  if (from == to) return 0.0;
  return path_row(from, to).delay(from);
}

const std::vector<std::uint32_t>& ForwardingFabric::bfs_from(
    AsId source) const {
  return bfs_rows_.get_or_build(source, [&] {
    PROF_SPAN("lina.fabric.bfs_row");
    const auto& graph = internet_->graph();
    std::vector<std::uint32_t> dist(graph.as_count(), kUnreached);
    dist[source] = 0;
    std::deque<AsId> queue{source};
    while (!queue.empty()) {
      const AsId u = queue.front();
      queue.pop_front();
      for (const auto& link : graph.links(u)) {
        if (dist[link.neighbor] == kUnreached) {
          dist[link.neighbor] = dist[u] + 1;
          queue.push_back(link.neighbor);
        }
      }
    }
    return dist;
  });
}

bool ForwardingFabric::policy_path_impaired(AsId from, AsId to,
                                            const FailurePlan& failures,
                                            double time_ms) const {
  if (!failures.data_plane_impaired(time_ms)) return false;
  check_range(from, to, "ForwardingFabric::policy_path_impaired");
  obs::metric::fabric_impaired_path_checks().add();
  if (failures.as_down(from, time_ms) || failures.as_down(to, time_ms))
    return true;
  const auto& hops = route_row(to).next;
  AsId current = from;
  std::size_t guard = 0;
  while (current != to) {
    const AsId hop = hops[current];
    if (hop == topology::kNoNode) return true;  // no policy route: detour
    if (failures.as_down(hop, time_ms) ||
        failures.link_down(current, hop, time_ms))
      return true;
    current = hop;
    if (++guard > internet_->graph().as_count())
      throw std::logic_error("ForwardingFabric: routing loop");
  }
  return false;
}

const topology::AsGraph& ForwardingFabric::degraded_graph(
    const FailurePlan& failures, double time_ms) const {
  const auto key =
      std::make_pair(failures.stamp(), failures.data_plane_epoch(time_ms));
  return degraded_graph_cache_.get_or_build(key, [&] {
    PROF_SPAN("lina.fabric.degraded_graph_build");
    obs::metric::fabric_degraded_graph_builds().add();

    // Rebuild the AS graph without the elements the plan has taken down.
    // Every AS keeps its dense id (dead ones just lose all adjacencies), so
    // routes computed on the copy index directly into the healthy graph.
    const auto& graph = internet_->graph();
    topology::AsGraph degraded;
    for (AsId as = 0; as < graph.as_count(); ++as)
      degraded.add_as(graph.tier(as), graph.location(as));
    for (AsId u = 0; u < graph.as_count(); ++u) {
      if (failures.as_down(u, time_ms)) continue;
      for (const auto& link : graph.links(u)) {
        const AsId v = link.neighbor;
        if (v < u) continue;  // each undirected link once
        if (failures.as_down(v, time_ms) || failures.link_down(u, v, time_ms))
          continue;
        switch (link.rel) {  // role of v relative to u
          case topology::AsRelationship::kProvider:
            degraded.add_provider_link(u, v);
            break;
          case topology::AsRelationship::kCustomer:
            degraded.add_provider_link(v, u);
            break;
          case topology::AsRelationship::kPeer:
            degraded.add_peer_link(u, v);
            break;
        }
      }
    }
    return degraded;
  });
}

const ForwardingFabric::RouteRow& ForwardingFabric::detour_row(
    AsId dest, const FailurePlan& failures, double time_ms) const {
  const auto key = std::make_tuple(failures.stamp(),
                                   failures.data_plane_epoch(time_ms), dest);
  return detour_cache_.get_or_build(key, [&] {
    PROF_SPAN("lina.fabric.detour_build");
    obs::metric::fabric_detour_route_builds().add();
    prof::instant("lina.sim.fabric.reconverge", time_ms,
                  static_cast<double>(dest));

    // BGP reconvergence: valley-free policy routes on the surviving
    // topology. Detours therefore obey the same export rules as healthy
    // routes — a failure can only lengthen (or sever) a path, never grant a
    // cheaper one than policy allows.
    return build_route_row(degraded_graph(failures, time_ms), dest,
                           [&](AsId as) {
                             return failures.as_down(as, time_ms);
                           });
  });
}

std::optional<Hop> ForwardingFabric::hop_toward(AsId at, AsId dest,
                                                const FailurePlan& failures,
                                                double time_ms) const {
  if (!failures.data_plane_impaired(time_ms)) return hop_toward(at, dest);
  if (failures.as_down(at, time_ms) || failures.as_down(dest, time_ms))
    return std::nullopt;
  if (at == dest) return Hop{at, link_delay_ms(at, at)};
  if (!policy_path_impaired(at, dest, failures, time_ms))
    return hop_toward(at, dest);
  obs::metric::fabric_detour_hops().add();
  return detour_row(dest, failures, time_ms).hop(at);
}

std::optional<double> ForwardingFabric::path_delay_ms(
    AsId from, AsId to, const FailurePlan& failures, double time_ms) const {
  if (!failures.data_plane_impaired(time_ms))
    return path_delay_ms(from, to);
  if (failures.as_down(from, time_ms) || failures.as_down(to, time_ms))
    return std::nullopt;
  if (!policy_path_impaired(from, to, failures, time_ms))
    return path_delay_ms(from, to);
  const RouteRow& row = detour_row(to, failures, time_ms);
  if (row.hops[from] == kLoop)
    throw std::logic_error("ForwardingFabric: detour loop");
  return row.delay(from);  // nullopt: partitioned
}

std::size_t ForwardingFabric::physical_hops(AsId from, AsId to) const {
  check_range(from, to, "ForwardingFabric::physical_hops");
  const std::uint32_t d = bfs_from(from)[to];
  if (d == kUnreached)
    throw std::logic_error("ForwardingFabric: disconnected AS graph");
  return d;
}

}  // namespace lina::sim
