#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "lina/net/ipv4.hpp"
#include "lina/topology/as_graph.hpp"

namespace lina::mobility {

/// One continuous attachment of a device to a network location — the
/// synthetic analogue of the interval between two NomadLog connectivity
/// events (§4).
struct DeviceVisit {
  double start_hour = 0.0;      // hours since trace start
  double duration_hours = 0.0;  // > 0
  net::Ipv4Address address;
  net::Prefix prefix;  // the announced prefix containing `address`
  topology::AsId as = 0;
  bool cellular = false;  // network type: cellular vs WiFi
};

/// An address-change ("mobility") event: the device was reachable at `from`
/// and becomes reachable at `to` at time `hour`.
struct DeviceMobilityEvent {
  double hour = 0.0;
  net::Ipv4Address from;
  net::Ipv4Address to;
};

/// Per-day extent-of-mobility statistics for one user — the raw material of
/// Figures 6, 7 and 9.
struct DayStats {
  std::size_t distinct_ips = 0;
  std::size_t distinct_prefixes = 0;
  std::size_t distinct_ases = 0;
  std::size_t ip_transitions = 0;
  std::size_t prefix_transitions = 0;
  std::size_t as_transitions = 0;
  double dominant_ip_fraction = 0.0;      // time share of the dominant IP
  double dominant_prefix_fraction = 0.0;
  double dominant_as_fraction = 0.0;
};

/// A device's full network-mobility history: a time-ordered sequence of
/// visits covering `day_count` days.
class DeviceTrace {
 public:
  DeviceTrace(std::uint32_t user_id, std::size_t day_count)
      : user_id_(user_id), day_count_(day_count) {}

  /// Appends a visit; must start exactly where the previous one ended
  /// (contiguous coverage) and have a finite start and a finite, positive
  /// duration. Throws std::invalid_argument otherwise.
  void append(DeviceVisit visit);

  /// Reserves room for `visits` visits (decoders know the count up front).
  void reserve(std::size_t visits) { visits_.reserve(visits); }

  [[nodiscard]] std::uint32_t user_id() const { return user_id_; }
  [[nodiscard]] std::size_t day_count() const { return day_count_; }
  [[nodiscard]] std::span<const DeviceVisit> visits() const {
    return visits_;
  }

  /// Statistics for one day (0-based); visits spanning midnight contribute
  /// their in-day portion to each day they touch.
  [[nodiscard]] DayStats day_stats(std::size_t day) const;

  /// All address-change events in time order (one per visit boundary where
  /// the address differs).
  [[nodiscard]] std::vector<DeviceMobilityEvent> events() const;

  /// The AS where the user spends the most total time across the whole
  /// trace — the natural home-agent placement (§6.3.1). Throws if empty.
  [[nodiscard]] topology::AsId dominant_as() const;

  /// The address where the user spends the most total time.
  [[nodiscard]] net::Ipv4Address dominant_address() const;

  /// Total time share spent at the dominant AS across the whole trace.
  [[nodiscard]] double dominant_as_share() const;

 private:
  std::uint32_t user_id_;
  std::size_t day_count_;
  std::vector<DeviceVisit> visits_;
};

}  // namespace lina::mobility
