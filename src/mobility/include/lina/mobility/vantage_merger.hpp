#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "lina/stats/rng.hpp"
#include "lina/topology/geo.hpp"

namespace lina::mobility {

/// Simulates the paper's distributed measurement (§7.1): each of N vantage
/// points hourly resolves a CDN-delegated name and receives the replicas
/// nearest to it; the controller merges the per-vantage views. The merged
/// view is the union of every vantage's k nearest replica sites — replicas
/// no vantage is near stay invisible, exactly the partial-view artifact the
/// real methodology has.
///
/// The replica sites are fixed for the merger's lifetime (the CDN's PoPs);
/// a domain's footprint is a list of slots, each naming one site. The
/// vantage × site distances are computed once, at construction.
class VantagePointMerger {
 public:
  /// `vantages`: measurement node locations; `sites`: every replica site a
  /// resolver can answer with; `replicas_per_resolution`: how many nearby
  /// replicas a locality-aware resolver returns per query.
  VantagePointMerger(std::span<const topology::GeoPoint> vantages,
                     std::span<const topology::GeoPoint> sites,
                     std::size_t replicas_per_resolution = 3);

  /// Per slot, whether any vantage sees it. `slot_sites[i]` is the site id
  /// (index into the constructor's `sites`) that slot i is served from.
  /// With no more slots than the resolver's answer size, everything is
  /// visible.
  [[nodiscard]] std::vector<bool> visible_sites(
      std::span<const std::size_t> slot_sites) const;

  /// Slot positions the single vantage `v` sees, ascending: its k nearest
  /// slots, ties in distance going to the lower slot position.
  [[nodiscard]] std::vector<std::size_t> sites_seen_by(
      std::size_t v, std::span<const std::size_t> slot_sites) const;

  [[nodiscard]] std::size_t vantage_count() const { return vantage_count_; }
  [[nodiscard]] std::size_t replicas_per_resolution() const {
    return replicas_per_resolution_;
  }

  /// Scatters `count` vantage points around the world metro anchors, the
  /// synthetic analogue of "74 Planetlab nodes chosen from as many
  /// different countries as possible".
  [[nodiscard]] static std::vector<topology::GeoPoint> worldwide_vantages(
      std::size_t count, stats::Rng& rng);

 private:
  /// Vantage `v`'s distance to every site.
  [[nodiscard]] std::span<const double> row(std::size_t v) const {
    return std::span<const double>(km_).subspan(v * site_count_,
                                                site_count_);
  }

  std::size_t vantage_count_;
  std::size_t site_count_;
  std::size_t replicas_per_resolution_;
  std::vector<double> km_;  // vantage-major: km_[v * site_count_ + site]
};

}  // namespace lina::mobility
