#include "lina/mobility/vantage_merger.hpp"

#include <algorithm>
#include <stdexcept>

#include "lina/topology/as_graph.hpp"

namespace lina::mobility {

namespace {

struct Candidate {
  double km;
  std::size_t slot;
};

/// The k nearest slots into `best`, ascending by (distance, slot
/// position); `km` holds one vantage's distance to every site.
void nearest_slots(std::span<const double> km,
                   std::span<const std::size_t> slot_sites, std::size_t k,
                   std::vector<Candidate>& best) {
  best.clear();
  for (std::size_t slot = 0; slot < slot_sites.size(); ++slot) {
    const double d = km[slot_sites[slot]];
    // Slots arrive in ascending position, so a slot only displaces kept
    // ones that are strictly farther: equal distances keep the lower
    // position, the (distance, slot) order of a full sort.
    if (best.size() == k && !(d < best.back().km)) continue;
    std::size_t at = best.size();
    while (at > 0 && d < best[at - 1].km) --at;
    if (best.size() < k) best.push_back({});
    std::copy_backward(best.begin() + static_cast<std::ptrdiff_t>(at),
                       best.end() - 1, best.end());
    best[at] = {d, slot};
  }
}

void check_sites(std::span<const std::size_t> slot_sites,
                 std::size_t site_count) {
  for (const std::size_t site : slot_sites) {
    if (site >= site_count)
      throw std::out_of_range("VantagePointMerger: unknown site id");
  }
}

}  // namespace

VantagePointMerger::VantagePointMerger(
    std::span<const topology::GeoPoint> vantages,
    std::span<const topology::GeoPoint> sites,
    std::size_t replicas_per_resolution)
    : vantage_count_(vantages.size()),
      site_count_(sites.size()),
      replicas_per_resolution_(replicas_per_resolution) {
  if (vantages.empty())
    throw std::invalid_argument("VantagePointMerger: no vantages");
  if (replicas_per_resolution_ == 0)
    throw std::invalid_argument(
        "VantagePointMerger: zero replicas per resolution");
  km_.reserve(vantage_count_ * site_count_);
  for (const topology::GeoPoint& here : vantages) {
    for (const topology::GeoPoint& site : sites) {
      km_.push_back(topology::great_circle_km(here, site));
    }
  }
}

std::vector<std::size_t> VantagePointMerger::sites_seen_by(
    std::size_t v, std::span<const std::size_t> slot_sites) const {
  if (v >= vantage_count_)
    throw std::out_of_range("VantagePointMerger::sites_seen_by");
  check_sites(slot_sites, site_count_);
  std::vector<Candidate> best;
  nearest_slots(row(v), slot_sites, replicas_per_resolution_, best);
  std::vector<std::size_t> seen;
  seen.reserve(best.size());
  for (const Candidate& c : best) seen.push_back(c.slot);
  std::sort(seen.begin(), seen.end());
  return seen;
}

std::vector<bool> VantagePointMerger::visible_sites(
    std::span<const std::size_t> slot_sites) const {
  check_sites(slot_sites, site_count_);
  if (slot_sites.size() <= replicas_per_resolution_) {
    return std::vector<bool>(slot_sites.size(), true);
  }
  std::vector<bool> visible(slot_sites.size(), false);
  std::vector<Candidate> best;
  best.reserve(replicas_per_resolution_);
  for (std::size_t v = 0; v < vantage_count_; ++v) {
    nearest_slots(row(v), slot_sites, replicas_per_resolution_, best);
    for (const Candidate& c : best) visible[c.slot] = true;
  }
  return visible;
}

std::vector<topology::GeoPoint> VantagePointMerger::worldwide_vantages(
    std::size_t count, stats::Rng& rng) {
  const auto anchors = topology::metro_anchors();
  std::vector<topology::GeoPoint> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const topology::GeoPoint base = anchors[i % anchors.size()];
    out.push_back({base.latitude_deg + rng.uniform(-10.0, 10.0),
                   base.longitude_deg + rng.uniform(-10.0, 10.0)});
  }
  return out;
}

}  // namespace lina::mobility
