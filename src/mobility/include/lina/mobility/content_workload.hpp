#pragma once

#include <cstdint>
#include <vector>

#include "lina/mobility/content_trace.hpp"
#include "lina/mobility/vantage_merger.hpp"
#include "lina/routing/synthetic_internet.hpp"

namespace lina::mobility {

/// Calibration knobs for the PlanetLab-substitute content workload
/// (DESIGN.md §1). Defaults reproduce the paper's §7 anchors: 500 popular
/// domains expanding to ~12K subdomains, 24.5% of popular (1.6% of
/// unpopular) domains CDN-delegated, 21 days of hourly resolution from 74
/// vantage points, and a median of ~2 merged-set changes per day for
/// popular content.
struct ContentWorkloadConfig {
  std::size_t popular_domains = 500;
  std::size_t unpopular_domains = 500;

  double popular_cdn_fraction = 0.245;
  double unpopular_cdn_fraction = 0.016;

  /// Subdomain fan-out of popular domains (log-normal across domains).
  double subdomain_median = 10.0;
  double subdomain_sigma = 1.3;
  std::size_t max_subdomains = 400;

  /// Fraction of a CDN-backed domain's subdomains that are CNAME-aliased
  /// to the CDN (the rest are origin-served).
  double cdn_alias_fraction = 0.7;

  std::size_t days = 21;
  std::size_t vantage_count = 74;
  std::size_t resolved_replicas_per_vantage = 3;

  /// CDN footprint: replica sites ("PoPs") per metro anchor, and the number
  /// of PoPs a CDN-backed domain is provisioned on.
  std::size_t pops_per_anchor = 4;
  std::size_t min_pops_per_domain = 8;
  std::size_t max_pops_per_domain = 40;

  /// Dynamics (per hour unless noted). Rotations stay inside one prefix
  /// (load-balancer pools and PoP subnets), so they change the observed
  /// address set without changing forwarding ports; footprint changes and
  /// migrations are what move ports.
  double cdn_replica_rotate_prob = 0.05;   // per aliased name: one replica
                                           // re-addressed within its PoP
  double cdn_pop_change_prob = 0.02;       // per domain: one PoP swapped
  double popular_origin_rotate_prob = 0.07;  // per origin-served name: DNS
                                             // load-balancing rotation
  double unpopular_origin_rotate_prob = 0.008;
  double popular_migrate_prob_per_day = 0.004;    // whole origin re-hosted
  double unpopular_migrate_prob_per_day = 0.0004;

  /// Fraction of origin-served names hosted in two regions (cloud primary +
  /// secondary); their pools rotate across the two hosting ASes, which is
  /// what moves forwarding ports for non-CDN popular content.
  double popular_multihomed_origin_fraction = 0.45;
  double unpopular_multihomed_origin_fraction = 0.02;
  double secondary_origin_weight = 0.3;  // share of pool drawn secondary

  /// Per-name dynamism mixture: a share of names resolve far more
  /// dynamically (Akamai-style per-query answers), producing the Figure
  /// 11(a) tail up to the 24/day sampling cap.
  double hot_name_fraction = 0.05;      // rotate every hour or two
  double warm_name_fraction = 0.10;     // a few times a day
  double hot_rotate_multiplier = 20.0;
  double warm_rotate_multiplier = 4.0;

  /// Origin-served names resolve to this many addresses.
  std::size_t origin_pool_min = 2;
  std::size_t origin_pool_max = 4;

  std::uint64_t seed = 11;
};

/// The generated catalog: one trace per content name.
struct ContentCatalog {
  std::vector<ContentTrace> popular;    // apex domains and their subdomains
  std::vector<ContentTrace> unpopular;
};

/// Generates content-mobility traces over a synthetic Internet.
///
/// Model (mirrors §7.1): a worldwide CDN with PoPs in stub ASes near every
/// metro anchor; popular domains "p<i>.com" with heavy-tailed subdomain
/// fan-out, CDN-backed with probability 24.5% (apex and an
/// `cdn_alias_fraction` share of subdomains aliased); unpopular domains
/// "u<i>.net" with almost no subdomains. Hourly, replica addresses rotate
/// within PoPs, PoP footprints occasionally change, and origin-served
/// names rotate through small load-balanced pools; every name's
/// merged-across-vantages address set is recorded on change.
class ContentWorkloadGenerator {
 public:
  ContentWorkloadGenerator(const routing::SyntheticInternet& internet,
                           ContentWorkloadConfig config = {});

  [[nodiscard]] ContentCatalog generate() const;

  [[nodiscard]] const ContentWorkloadConfig& config() const {
    return config_;
  }

  /// The CDN PoP ASes chosen by the generator (exposed for tests).
  [[nodiscard]] std::span<const topology::AsId> cdn_pop_ases() const {
    return pop_ases_;
  }

 private:
  const routing::SyntheticInternet& internet_;
  ContentWorkloadConfig config_;
  std::vector<topology::AsId> pop_ases_;       // CDN replica sites
  std::vector<topology::GeoPoint> pop_sites_;  // their locations
};

}  // namespace lina::mobility
