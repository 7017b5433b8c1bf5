#pragma once

#include <cstddef>
#include <cstdint>
#include <ranges>
#include <span>
#include <vector>

#include "lina/names/content_name.hpp"
#include "lina/net/ipv4.hpp"

namespace lina::mobility {

/// The resolved address set of a content name at one instant — Addrs(d, t)
/// in the paper's §3.3.1 — as merged across all measurement vantage points.
/// A view into its trace's columns, valid while the trace is unchanged.
struct ContentSnapshot {
  double hour = 0.0;
  std::span<const net::Ipv4Address> addresses;  // sorted, deduplicated
};

/// One content mobility event: the merged address set changed between two
/// consecutive hourly observations.
struct ContentMobilityEvent {
  double hour = 0.0;  // when the new set was observed
  std::span<const net::Ipv4Address> before;
  std::span<const net::Ipv4Address> after;
};

/// The observation history of one content name: the initial address set
/// plus a snapshot at every change (storing only changes keeps the
/// 12K-name × 3-week catalog compact). Snapshots are stored as three flat
/// columns — hours, address ends and one address column — so recording
/// one costs no allocation of its own.
class ContentTrace {
 public:
  ContentTrace(names::ContentName name, bool popular, bool cdn_backed,
               std::size_t day_count)
      : name_(std::move(name)),
        popular_(popular),
        cdn_backed_(cdn_backed),
        day_count_(day_count) {}

  /// Records the address set observed at `hour`. The set is normalized
  /// (sorted, deduplicated); if it equals the previous snapshot the call is
  /// a no-op (no mobility event happened). Hours must be non-decreasing;
  /// the first snapshot must be at hour 0. Empty sets are allowed
  /// (momentarily unresolvable names). Non-finite hours throw.
  /// `addresses` must not view this trace's own snapshots.
  void observe(double hour, std::span<const net::Ipv4Address> addresses);

  [[nodiscard]] const names::ContentName& name() const { return name_; }
  [[nodiscard]] bool popular() const { return popular_; }
  [[nodiscard]] bool cdn_backed() const { return cdn_backed_; }
  [[nodiscard]] std::size_t day_count() const { return day_count_; }

  /// All snapshots in time order, as a random-access range of views.
  [[nodiscard]] auto snapshots() const {
    return std::views::iota(std::size_t{0}, hours_.size()) |
           std::views::transform(
               [this](std::size_t i) { return snapshot(i); });
  }

  /// All mobility events (consecutive snapshot pairs), in time order.
  [[nodiscard]] std::vector<ContentMobilityEvent> events() const;

  /// Average mobility events per day over the whole trace.
  [[nodiscard]] double events_per_day() const;

  /// The final observed address set (empty if never observed).
  [[nodiscard]] std::span<const net::Ipv4Address> final_addresses() const;

 private:
  /// Snapshot `i` as a view into the columns.
  [[nodiscard]] ContentSnapshot snapshot(std::size_t i) const {
    const std::size_t begin = i == 0 ? 0 : address_end_[i - 1];
    return {hours_[i],
            std::span<const net::Ipv4Address>(addresses_)
                .subspan(begin, address_end_[i] - begin)};
  }

  names::ContentName name_;
  bool popular_;
  bool cdn_backed_;
  std::size_t day_count_;
  std::vector<double> hours_;               // per snapshot
  std::vector<std::uint32_t> address_end_;  // per snapshot: end in addresses_
  std::vector<net::Ipv4Address> addresses_;
};

}  // namespace lina::mobility
