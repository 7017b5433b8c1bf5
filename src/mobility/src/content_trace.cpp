#include "lina/mobility/content_trace.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace lina::mobility {

void ContentTrace::observe(double hour,
                           std::span<const net::Ipv4Address> addresses) {
  if (!std::isfinite(hour))
    throw std::invalid_argument("ContentTrace::observe: non-finite hour");
  if (hours_.empty()) {
    if (std::abs(hour) > 1e-9)
      throw std::invalid_argument(
          "ContentTrace::observe: first snapshot must be at hour 0");
  } else if (hour < hours_.back() - 1e-9) {
    throw std::invalid_argument("ContentTrace::observe: time went backward");
  }
  if (addresses_.size() + addresses.size() >
      std::numeric_limits<std::uint32_t>::max())
    throw std::length_error("ContentTrace::observe: trace too large");
  // Normalize in place at the tail of the address column, then keep the
  // tail only if it differs from the previous snapshot.
  const std::size_t begin = addresses_.size();
  addresses_.insert(addresses_.end(), addresses.begin(), addresses.end());
  const auto tail = addresses_.begin() + static_cast<std::ptrdiff_t>(begin);
  std::sort(tail, addresses_.end());
  addresses_.erase(std::unique(tail, addresses_.end()), addresses_.end());
  if (!hours_.empty()) {
    const std::span<const net::Ipv4Address> previous =
        snapshot(hours_.size() - 1).addresses;
    if (std::equal(previous.begin(), previous.end(), tail,
                   addresses_.end())) {
      addresses_.resize(begin);  // no change
      return;
    }
  }
  hours_.push_back(hour);
  address_end_.push_back(static_cast<std::uint32_t>(addresses_.size()));
}

std::vector<ContentMobilityEvent> ContentTrace::events() const {
  std::vector<ContentMobilityEvent> out;
  out.reserve(hours_.empty() ? 0 : hours_.size() - 1);
  for (std::size_t i = 1; i < hours_.size(); ++i) {
    out.push_back(
        {hours_[i], snapshot(i - 1).addresses, snapshot(i).addresses});
  }
  return out;
}

double ContentTrace::events_per_day() const {
  if (day_count_ == 0) return 0.0;
  const std::size_t events = hours_.empty() ? 0 : hours_.size() - 1;
  return static_cast<double>(events) / static_cast<double>(day_count_);
}

std::span<const net::Ipv4Address> ContentTrace::final_addresses() const {
  if (hours_.empty()) return {};
  return snapshot(hours_.size() - 1).addresses;
}

}  // namespace lina::mobility
