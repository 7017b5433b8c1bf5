#include "lina/mobility/device_trace.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <stdexcept>

namespace lina::mobility {

namespace {
constexpr double kEpsilon = 1e-9;
}

void DeviceTrace::append(DeviceVisit visit) {
  // NaN passes both the sign and the gap checks below, so finiteness is
  // checked first: every stored hour is then safe to order and sum.
  if (!std::isfinite(visit.start_hour))
    throw std::invalid_argument(
        "DeviceTrace::append: non-finite start_hour");
  if (!std::isfinite(visit.duration_hours))
    throw std::invalid_argument(
        "DeviceTrace::append: non-finite duration_hours");
  if (visit.duration_hours <= 0.0)
    throw std::invalid_argument("DeviceTrace::append: non-positive duration");
  if (!visits_.empty()) {
    const DeviceVisit& last = visits_.back();
    const double expected = last.start_hour + last.duration_hours;
    if (std::abs(visit.start_hour - expected) > 1e-6)
      throw std::invalid_argument("DeviceTrace::append: gap in coverage");
  } else if (std::abs(visit.start_hour) > 1e-6) {
    throw std::invalid_argument("DeviceTrace::append: must start at hour 0");
  }
  visits_.push_back(visit);
}

DayStats DeviceTrace::day_stats(std::size_t day) const {
  if (day >= day_count_)
    throw std::out_of_range("DeviceTrace::day_stats: day out of range");
  const double day_start = static_cast<double>(day) * 24.0;
  const double day_end = day_start + 24.0;

  DayStats stats;
  std::set<std::uint32_t> ips;
  std::set<net::Prefix> prefixes;
  std::set<topology::AsId> ases;
  std::map<std::uint32_t, double> ip_time;
  std::map<net::Prefix, double> prefix_time;
  std::map<topology::AsId, double> as_time;

  const DeviceVisit* previous = nullptr;
  double covered = 0.0;
  for (const DeviceVisit& visit : visits_) {
    const double begin = std::max(visit.start_hour, day_start);
    const double end =
        std::min(visit.start_hour + visit.duration_hours, day_end);
    if (end - begin <= kEpsilon) {
      if (visit.start_hour + visit.duration_hours <= day_start)
        previous = &visit;  // track the last visit ending before the day
      continue;
    }
    ips.insert(visit.address.value());
    prefixes.insert(visit.prefix);
    ases.insert(visit.as);
    ip_time[visit.address.value()] += end - begin;
    prefix_time[visit.prefix] += end - begin;
    as_time[visit.as] += end - begin;
    covered += end - begin;

    // A transition is counted inside this day if the boundary between the
    // previous visit and this one falls within (day_start, day_end].
    if (previous != nullptr && visit.start_hour > day_start - kEpsilon &&
        visit.start_hour < day_end - kEpsilon &&
        visit.start_hour > kEpsilon) {
      if (previous->address != visit.address) ++stats.ip_transitions;
      if (previous->prefix != visit.prefix) ++stats.prefix_transitions;
      if (previous->as != visit.as) ++stats.as_transitions;
    }
    previous = &visit;
  }

  stats.distinct_ips = ips.size();
  stats.distinct_prefixes = prefixes.size();
  stats.distinct_ases = ases.size();

  const auto max_share = [covered](const auto& time_map) {
    double best = 0.0;
    for (const auto& [_, t] : time_map) best = std::max(best, t);
    return covered > 0.0 ? best / covered : 0.0;
  };
  stats.dominant_ip_fraction = max_share(ip_time);
  stats.dominant_prefix_fraction = max_share(prefix_time);
  stats.dominant_as_fraction = max_share(as_time);
  return stats;
}

std::vector<DeviceMobilityEvent> DeviceTrace::events() const {
  std::vector<DeviceMobilityEvent> out;
  for (std::size_t i = 1; i < visits_.size(); ++i) {
    if (visits_[i - 1].address != visits_[i].address) {
      out.push_back({visits_[i].start_hour, visits_[i - 1].address,
                     visits_[i].address});
    }
  }
  return out;
}

topology::AsId DeviceTrace::dominant_as() const {
  if (visits_.empty()) throw std::logic_error("DeviceTrace: empty trace");
  std::map<topology::AsId, double> time;
  for (const DeviceVisit& v : visits_) time[v.as] += v.duration_hours;
  return std::max_element(time.begin(), time.end(),
                          [](const auto& a, const auto& b) {
                            return a.second < b.second;
                          })
      ->first;
}

net::Ipv4Address DeviceTrace::dominant_address() const {
  if (visits_.empty()) throw std::logic_error("DeviceTrace: empty trace");
  std::map<std::uint32_t, double> time;
  for (const DeviceVisit& v : visits_) time[v.address.value()] += v.duration_hours;
  const auto best = std::max_element(time.begin(), time.end(),
                                     [](const auto& a, const auto& b) {
                                       return a.second < b.second;
                                     });
  return net::Ipv4Address(best->first);
}

double DeviceTrace::dominant_as_share() const {
  if (visits_.empty()) throw std::logic_error("DeviceTrace: empty trace");
  std::map<topology::AsId, double> time;
  double total = 0.0;
  for (const DeviceVisit& v : visits_) {
    time[v.as] += v.duration_hours;
    total += v.duration_hours;
  }
  double best = 0.0;
  for (const auto& [_, t] : time) best = std::max(best, t);
  return best / total;
}

}  // namespace lina::mobility
