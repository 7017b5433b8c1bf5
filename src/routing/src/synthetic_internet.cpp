#include "lina/routing/synthetic_internet.hpp"

#include <algorithm>
#include <limits>
#include <set>
#include <stdexcept>

#include "lina/net/ip_trie.hpp"
#include "lina/routing/policy_routing.hpp"

namespace lina::routing {

using topology::AsGraph;
using topology::AsId;
using topology::AsRelationship;
using topology::AsTier;
using topology::GeoPoint;

std::vector<VantageSpec> routeviews_vantage_specs() {
  // Anchor indices refer to topology::metro_anchors():
  // 0 Oregon, 1 California, 2 Georgia, 3 Virginia, 4 Sao Paulo, 5 London,
  // 6 Paris, 7 Mauritius, 8 Tokyo, 9 Sydney, 10 Singapore, 11 Mumbai.
  return {
      {"Oregon-1", 0, VantageProfile::kCore},
      {"Oregon-2", 0, VantageProfile::kRegional},
      {"Oregon-3", 0, VantageProfile::kRegional},
      {"Oregon-4", 0, VantageProfile::kRegional},
      {"California-1", 1, VantageProfile::kCore},
      {"Georgia", 2, VantageProfile::kModest},
      {"Virginia", 3, VantageProfile::kRegional},
      {"Saopaulo-1", 4, VantageProfile::kModest},
      {"London-1", 5, VantageProfile::kRegional},
      {"Mauritius", 7, VantageProfile::kEdge},
      {"Tokyo", 8, VantageProfile::kEdge},
      {"Sydney", 9, VantageProfile::kRegional},
  };
}

std::vector<VantageSpec> ripe_vantage_specs() {
  return {
      {"RIPE-Amsterdam", 5, VantageProfile::kRegional},
      {"RIPE-Paris", 6, VantageProfile::kCore},
      {"RIPE-Geneva", 6, VantageProfile::kRegional},
      {"RIPE-Stockholm", 5, VantageProfile::kModest},
      {"RIPE-Vienna", 6, VantageProfile::kModest},
      {"RIPE-NewYork", 3, VantageProfile::kRegional},
      {"RIPE-Miami", 2, VantageProfile::kRegional},
      {"RIPE-SanJose", 1, VantageProfile::kRegional},
      {"RIPE-SaoPaulo", 4, VantageProfile::kRegional},
      {"RIPE-Johannesburg", 7, VantageProfile::kModest},
      {"RIPE-Singapore", 10, VantageProfile::kCore},
      {"RIPE-Mumbai", 11, VantageProfile::kModest},
      {"RIPE-Tokyo", 8, VantageProfile::kRegional},
  };
}

namespace {

// A per-(router, neighbor) preference value standing in for the IGP
// distance / router-id tie-break real BGP applies after MED. Crucially it
// does NOT depend on the prefix: two prefixes with identical candidate
// structure must resolve to the same next hop, otherwise the displacement
// methodology sees phantom port diversity.
std::uint32_t med_hash(AsId vantage, AsId neighbor) {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (const std::uint64_t v :
       {std::uint64_t{vantage}, std::uint64_t{neighbor}}) {
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  }
  return static_cast<std::uint32_t>(h % 10);
}

}  // namespace

SyntheticInternet::SyntheticInternet(const SyntheticInternetConfig& config,
                                     std::vector<VantageSpec> specs) {
  stats::Rng rng(config.seed, "synthetic-internet");
  graph_ = topology::make_hierarchical_internet(config.topology, rng);
  assign_prefixes(config, rng);
  vantages_ = build_vantages(specs);
}

void SyntheticInternet::assign_prefixes(const SyntheticInternetConfig& config,
                                        stats::Rng& rng) {
  prefixes_by_as_.assign(graph_.as_count(), {});
  // /16 blocks carved sequentially from 1.0.0.0 upward: block b becomes
  // (b/256 + 1).(b%256).0.0/16, so prefixes read like real unicast space.
  std::uint32_t next_block = 0;
  constexpr std::uint32_t kMaxBlocks = 222u * 256u;  // up to 222.x.0.0/16
  net::IpTrie<AsId> owners;

  const auto allocate = [&](AsId as, std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) {
      if (next_block == kMaxBlocks)
        throw std::logic_error("SyntheticInternet: /16 pool exhausted");
      const net::Prefix prefix(
          net::Ipv4Address((((next_block >> 8) + 1u) << 24) |
                           ((next_block & 0xffu) << 16)),
          16);
      ++next_block;
      prefixes_by_as_[as].push_back(prefix);
      all_prefixes_.push_back(prefix);
      owners.insert(prefix, as);
    }
  };

  for (std::size_t as = 0; as < graph_.as_count(); ++as) {
    const auto id = static_cast<AsId>(as);
    switch (graph_.tier(id)) {
      case AsTier::kTier1:
        break;  // pure transit
      case AsTier::kTier2:
        allocate(id, config.prefixes_per_tier2);
        break;
      case AsTier::kStub:
        allocate(id, config.min_prefixes_per_stub +
                         rng.index(config.max_prefixes_per_stub -
                                   config.min_prefixes_per_stub + 1));
        break;
    }
    if (!prefixes_by_as_[as].empty()) edge_ases_.push_back(id);
  }
  owner_trie_ = owners.freeze();
}

AsId SyntheticInternet::pick_vantage_as(
    const VantageSpec& spec, const std::vector<AsId>& used) const {
  const GeoPoint anchor = topology::metro_anchors()[spec.metro_anchor];
  const auto distance_to_anchor = [&](AsId as) {
    return topology::great_circle_km(anchor, graph_.location(as));
  };
  const auto is_used = [&used](AsId as) {
    return std::find(used.begin(), used.end(), as) != used.end();
  };

  // Picks the best unused candidate (falls back to allowing reuse only if
  // every candidate is taken).
  const auto best_by = [&](const std::vector<AsId>& pool,
                           auto&& better) -> AsId {
    if (pool.empty())
      throw std::logic_error("SyntheticInternet: empty vantage pool");
    const AsId* best = nullptr;
    for (const AsId& candidate : pool) {
      if (is_used(candidate)) continue;
      if (best == nullptr || better(candidate, *best)) best = &candidate;
    }
    if (best != nullptr) return *best;
    AsId fallback = pool.front();
    for (const AsId candidate : pool) {
      if (better(candidate, fallback)) fallback = candidate;
    }
    return fallback;
  };

  switch (spec.profile) {
    case VantageProfile::kCore: {
      const auto pool = graph_.ases_of_tier(AsTier::kTier1);
      return best_by(pool, [&](AsId a, AsId b) {
        return distance_to_anchor(a) < distance_to_anchor(b);
      });
    }
    case VantageProfile::kRegional:
    case VantageProfile::kModest: {
      // Among the 8 tier-2s nearest the anchor, pick the highest-degree
      // (regional) or lowest-degree (modest) one.
      auto pool = graph_.ases_of_tier(AsTier::kTier2);
      std::sort(pool.begin(), pool.end(), [&](AsId a, AsId b) {
        return distance_to_anchor(a) < distance_to_anchor(b);
      });
      pool.resize(std::min<std::size_t>(pool.size(), 8));
      const bool want_high = spec.profile == VantageProfile::kRegional;
      return best_by(pool, [&](AsId a, AsId b) {
        return want_high ? graph_.degree(a) > graph_.degree(b)
                         : graph_.degree(a) < graph_.degree(b);
      });
    }
    case VantageProfile::kEdge: {
      const auto pool = graph_.ases_of_tier(AsTier::kStub);
      return best_by(pool, [&](AsId a, AsId b) {
        // Prefer single-homed, then nearest.
        if (graph_.degree(a) != graph_.degree(b))
          return graph_.degree(a) < graph_.degree(b);
        return distance_to_anchor(a) < distance_to_anchor(b);
      });
    }
  }
  throw std::logic_error("SyntheticInternet: unknown vantage profile");
}

std::vector<VantageRouter> SyntheticInternet::build_vantages(
    std::span<const VantageSpec> specs) const {
  std::vector<VantageRouter> routers;
  routers.reserve(specs.size());
  std::vector<AsId> used;
  for (const VantageSpec& spec : specs) {
    const AsId as = pick_vantage_as(spec, used);
    used.push_back(as);
    routers.emplace_back(spec.name, as, graph_.location(as));
  }

  // One policy-routing pass per destination AS serves every router.
  for (const AsId d : edge_ases_) {
    const PolicyRoutes routes(graph_, d);
    for (VantageRouter& router : routers) {
      const AsId v = router.as_number();
      if (v == d) {
        // Local delivery: a self route whose port is the router's own AS.
        for (const net::Prefix& prefix : prefixes_by_as_[d]) {
          router.install(RibRoute{.prefix = prefix,
                                  .as_path = AsPath({v}),
                                  .route_class = RouteClass::kCustomer,
                                  .local_pref = 0,
                                  .med = 0});
        }
        continue;
      }
      for (const AsGraph::Link& link : graph_.links(v)) {
        const AsId n = link.neighbor;
        std::optional<AsPath> tail;
        RouteClass cls;
        if (link.rel == AsRelationship::kProvider) {
          // Providers export their best route of any class.
          tail = routes.best_path(n);
          cls = RouteClass::kProvider;
        } else {
          // Customers and peers export only customer routes (+ own prefix).
          tail = routes.path(n, RouteClass::kCustomer);
          cls = link.rel == AsRelationship::kCustomer ? RouteClass::kCustomer
                                                      : RouteClass::kPeer;
        }
        if (!tail.has_value()) continue;
        std::vector<AsId> hops{n};
        hops.insert(hops.end(), tail->hops().begin(), tail->hops().end());
        AsPath path(std::move(hops));
        if (path.contains(v) || !path.loop_free()) continue;
        for (const net::Prefix& prefix : prefixes_by_as_[d]) {
          router.install(
              RibRoute{.prefix = prefix,
                       .as_path = path,
                       .route_class = cls,
                       .local_pref = 0,
                       .med = med_hash(v, n)});
        }
      }
    }
  }
  for (VantageRouter& router : routers) router.build_fib();
  return routers;
}

const VantageRouter& SyntheticInternet::vantage(std::string_view name) const {
  for (const VantageRouter& router : vantages_) {
    if (router.name() == name) return router;
  }
  throw std::invalid_argument("SyntheticInternet: unknown vantage " +
                              std::string(name));
}

std::span<const net::Prefix> SyntheticInternet::prefixes_of(AsId as) const {
  if (as >= prefixes_by_as_.size())
    throw std::out_of_range("SyntheticInternet::prefixes_of");
  return prefixes_by_as_[as];
}

AsId SyntheticInternet::owner_of(net::Ipv4Address addr) const {
  const AsId* owner = owner_trie_.lookup_value(addr);
  if (owner == nullptr)
    throw std::invalid_argument("SyntheticInternet::owner_of: " +
                                addr.to_string() + " not announced");
  return *owner;
}

net::Prefix SyntheticInternet::prefix_of(net::Ipv4Address addr) const {
  const auto hit = owner_trie_.lookup(addr);
  if (!hit.has_value())
    throw std::invalid_argument("SyntheticInternet::prefix_of: " +
                                addr.to_string() + " not announced");
  return hit->first;
}

net::Ipv4Address SyntheticInternet::random_address_in(AsId as,
                                                      stats::Rng& rng) const {
  const auto prefixes = prefixes_of(as);
  if (prefixes.empty())
    throw std::invalid_argument(
        "SyntheticInternet::random_address_in: AS announces no prefix");
  return random_address_in(prefixes[rng.index(prefixes.size())], rng);
}

net::Ipv4Address SyntheticInternet::random_address_in(
    const net::Prefix& prefix, stats::Rng& rng) {
  if (prefix.length() >= 31)
    throw std::invalid_argument(
        "SyntheticInternet::random_address_in: prefix too small");
  const std::uint32_t host_bits = 32 - prefix.length();
  const auto offset = static_cast<std::uint32_t>(
      rng.uniform_int(1, (std::uint64_t{1} << host_bits) - 2));
  return net::Ipv4Address(prefix.network().value() | offset);
}

std::vector<AsId> SyntheticInternet::edge_ases_near(GeoPoint point,
                                                    std::size_t k) const {
  std::vector<AsId> sorted = edge_ases_;
  std::sort(sorted.begin(), sorted.end(), [&](AsId a, AsId b) {
    return topology::great_circle_km(point, graph_.location(a)) <
           topology::great_circle_km(point, graph_.location(b));
  });
  sorted.resize(std::min(k, sorted.size()));
  return sorted;
}

}  // namespace lina::routing
