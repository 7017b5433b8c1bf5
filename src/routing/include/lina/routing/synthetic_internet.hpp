#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "lina/net/frozen_ip_trie.hpp"
#include "lina/net/ipv4.hpp"
#include "lina/routing/vantage_router.hpp"
#include "lina/stats/rng.hpp"
#include "lina/topology/as_graph.hpp"

namespace lina::routing {

/// How much connectivity a synthetic vantage router has — the knob that
/// reproduces the paper's cross-router spread (high next-hop-degree
/// "Oregon" collectors vs the barely-impacted "Mauritius"/"Tokyo" ones).
enum class VantageProfile : std::uint8_t {
  kCore,      // placed at a tier-1 AS: full peer mesh + customers
  kRegional,  // high-degree tier-2 near the anchor
  kModest,    // low-degree tier-2 (the paper's "Georgia")
  kEdge,      // stub AS: one or two providers only
};

struct VantageSpec {
  std::string name;
  std::size_t metro_anchor;  // index into topology::metro_anchors()
  VantageProfile profile = VantageProfile::kCore;
};

/// The twelve vantage routers of the paper's Routeviews set (§6.2.1).
[[nodiscard]] std::vector<VantageSpec> routeviews_vantage_specs();

/// A thirteen-router set standing in for the paper's RIPE sensitivity set
/// (13 cities, 10 distinct from the Routeviews set).
[[nodiscard]] std::vector<VantageSpec> ripe_vantage_specs();

struct SyntheticInternetConfig {
  topology::InternetConfig topology;
  std::size_t min_prefixes_per_stub = 1;
  std::size_t max_prefixes_per_stub = 3;
  std::size_t prefixes_per_tier2 = 2;
  std::uint64_t seed = 42;
};

/// A fully assembled synthetic Internet: AS graph + prefix ownership +
/// policy-routed RIBs/FIBs at a set of named vantage routers. This is the
/// stand-in for "real Internet topologies and routing tables from real
/// routers" (§3.2) that every empirical experiment runs against.
class SyntheticInternet {
 public:
  explicit SyntheticInternet(
      const SyntheticInternetConfig& config = {},
      std::vector<VantageSpec> specs = routeviews_vantage_specs());

  [[nodiscard]] const topology::AsGraph& graph() const { return graph_; }

  [[nodiscard]] std::span<const VantageRouter> vantages() const {
    return vantages_;
  }
  [[nodiscard]] const VantageRouter& vantage(std::string_view name) const;

  /// Prefixes announced by an AS (empty for pure-transit ASes).
  [[nodiscard]] std::span<const net::Prefix> prefixes_of(
      topology::AsId as) const;

  /// Every announced prefix.
  [[nodiscard]] std::span<const net::Prefix> all_prefixes() const {
    return all_prefixes_;
  }

  /// The AS announcing the covering prefix of `addr`; throws if uncovered.
  [[nodiscard]] topology::AsId owner_of(net::Ipv4Address addr) const;

  /// The announced prefix covering `addr`; throws if uncovered.
  [[nodiscard]] net::Prefix prefix_of(net::Ipv4Address addr) const;

  /// A uniformly random host address within one of `as`'s prefixes.
  /// Throws if the AS announces no prefix.
  [[nodiscard]] net::Ipv4Address random_address_in(topology::AsId as,
                                                   stats::Rng& rng) const;

  /// A uniformly random host address within a specific announced prefix
  /// (used to model DHCP/load-balancer churn that stays inside one subnet).
  [[nodiscard]] static net::Ipv4Address random_address_in(
      const net::Prefix& prefix, stats::Rng& rng);

  /// ASes that announce at least one prefix (candidate endpoint homes).
  [[nodiscard]] std::span<const topology::AsId> edge_ases() const {
    return edge_ases_;
  }

  /// The `k` edge ASes nearest to a point — used to site CDN replicas.
  [[nodiscard]] std::vector<topology::AsId> edge_ases_near(
      topology::GeoPoint point, std::size_t k) const;

  /// Builds vantage routers for an extra spec list against this same
  /// Internet (used for the RIPE sensitivity experiment).
  [[nodiscard]] std::vector<VantageRouter> build_vantages(
      std::span<const VantageSpec> specs) const;

 private:
  void assign_prefixes(const SyntheticInternetConfig& config,
                       stats::Rng& rng);
  [[nodiscard]] topology::AsId pick_vantage_as(
      const VantageSpec& spec, const std::vector<topology::AsId>& used) const;

  topology::AsGraph graph_;
  std::vector<VantageRouter> vantages_;
  std::vector<std::vector<net::Prefix>> prefixes_by_as_;
  std::vector<net::Prefix> all_prefixes_;
  std::vector<topology::AsId> edge_ases_;
  net::FrozenIpTrie<topology::AsId> owner_trie_;  // prefix -> announcing AS
};

}  // namespace lina::routing
