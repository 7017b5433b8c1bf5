#pragma once

// Sort-based reference for the vantage merger: every vantage sorts all
// slots by (great-circle distance, slot position), computing distances
// inside the comparator, and keeps the first k. The differential test
// checks that the table-driven top-k selection agrees with it exactly.

#include <algorithm>
#include <numeric>
#include <span>
#include <vector>

#include "lina/topology/geo.hpp"

namespace lina::testing {

/// Slot positions `vantage` sees, ascending: its k nearest slots.
inline std::vector<std::size_t> reference_sites_seen_by(
    const topology::GeoPoint& vantage,
    std::span<const topology::GeoPoint> slot_points, std::size_t k) {
  std::vector<std::size_t> order(slot_points.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const double da = topology::great_circle_km(vantage, slot_points[a]);
    const double db = topology::great_circle_km(vantage, slot_points[b]);
    if (da != db) return da < db;
    return a < b;
  });
  order.resize(std::min(k, order.size()));
  std::sort(order.begin(), order.end());
  return order;
}

/// Per slot, whether any vantage's k nearest slots include it.
inline std::vector<bool> reference_visible_sites(
    std::span<const topology::GeoPoint> vantages,
    std::span<const topology::GeoPoint> slot_points, std::size_t k) {
  std::vector<bool> visible(slot_points.size(), slot_points.size() <= k);
  for (const topology::GeoPoint& vantage : vantages) {
    for (const std::size_t s :
         reference_sites_seen_by(vantage, slot_points, k)) {
      visible[s] = true;
    }
  }
  return visible;
}

}  // namespace lina::testing
