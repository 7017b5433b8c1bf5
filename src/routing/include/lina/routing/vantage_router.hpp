#pragma once

#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "lina/routing/fib.hpp"
#include "lina/routing/rib.hpp"
#include "lina/topology/geo.hpp"

namespace lina::routing {

/// A named measurement router: a RIB collected from its neighbors plus the
/// FIB derived from it — the synthetic counterpart of one Routeviews/RIPE
/// vantage in the paper (Oregon-1 ... Sydney).
class VantageRouter {
 public:
  VantageRouter(std::string name, topology::AsId as_number,
                topology::GeoPoint location)
      : name_(std::move(name)), as_(as_number), location_(location) {}

  // Copies duplicate the RIB and rebuild the FIB lazily in the copy; the
  // once-flag is per-object (it guards the lazy build, not the data).
  VantageRouter(const VantageRouter& other)
      : name_(other.name_),
        as_(other.as_),
        location_(other.location_),
        rib_(other.rib_) {}
  VantageRouter& operator=(const VantageRouter& other) {
    if (this != &other) {
      name_ = other.name_;
      as_ = other.as_;
      location_ = other.location_;
      rib_ = other.rib_;
      fib_ = Fib{};
      fib_once_ = std::make_unique<std::once_flag>();
    }
    return *this;
  }
  VantageRouter(VantageRouter&&) = default;
  VantageRouter& operator=(VantageRouter&&) = default;

  /// Adds a candidate route to the RIB. Invalidates the cached FIB.
  void install(RibRoute route);

  /// Selects best routes for every prefix. Called lazily by fib() but
  /// exposed so bulk loading can pay the cost once. Thread-safe (the lazy
  /// build runs under a std::once_flag), so one router may serve fib()
  /// from many lina::exec workers.
  void build_fib() const;

  [[nodiscard]] std::string_view name() const { return name_; }
  [[nodiscard]] topology::AsId as_number() const { return as_; }
  [[nodiscard]] topology::GeoPoint location() const { return location_; }

  [[nodiscard]] const Rib& rib() const { return rib_; }
  [[nodiscard]] const Fib& fib() const;

  /// Distinct output ports across the FIB.
  [[nodiscard]] std::size_t next_hop_degree() const;

 private:
  std::string name_;
  topology::AsId as_;
  topology::GeoPoint location_;
  Rib rib_;
  mutable Fib fib_;
  // Recreated (never re-armed) on install(); unique_ptr keeps the router
  // movable, which std::once_flag itself is not.
  mutable std::unique_ptr<std::once_flag> fib_once_ =
      std::make_unique<std::once_flag>();
};

}  // namespace lina::routing
