#include "lina/core/fib_size.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "address_interner.hpp"
#include "lina/exec/parallel.hpp"

namespace lina::core {

namespace {

constexpr routing::Port kNoRoutePort =
    std::numeric_limits<routing::Port>::max();

/// The visit active at `hour`, or nullptr past the end of the trace.
const mobility::DeviceVisit* visit_at(const mobility::DeviceTrace& trace,
                                      double hour) {
  const auto visits = trace.visits();
  if (visits.empty()) return nullptr;
  // First visit starting after `hour`, then step back one.
  const auto it = std::upper_bound(
      visits.begin(), visits.end(), hour,
      [](double h, const mobility::DeviceVisit& v) {
        return h < v.start_hour;
      });
  if (it == visits.begin()) return nullptr;
  const mobility::DeviceVisit* visit = &*(it - 1);
  if (hour >= visit->start_hour + visit->duration_hours + 1e-9)
    return nullptr;
  return visit;
}

}  // namespace

std::vector<DisplacedEntryTimeline> evaluate_displaced_entries(
    std::span<const routing::VantageRouter> routers,
    std::span<const mobility::DeviceTrace> traces,
    double sample_interval_hours) {
  if (traces.empty())
    throw std::invalid_argument("evaluate_displaced_entries: no traces");
  if (sample_interval_hours <= 0.0)
    throw std::invalid_argument(
        "evaluate_displaced_entries: non-positive interval");

  // The scan only ever asks for ports of home addresses and visit
  // addresses, and every router needs the same set — so collect the
  // distinct addresses once (first-seen order keeps this deterministic)
  // and resolve them per router with one batched pass over a frozen FIB
  // snapshot instead of memoizing live-trie walks inside the hot loop.
  double horizon = 0.0;
  std::vector<net::Ipv4Address> homes;
  homes.reserve(traces.size());
  std::vector<net::Ipv4Address> distinct;
  detail::AddressInterner interner(distinct);
  for (const mobility::DeviceTrace& trace : traces) {
    homes.push_back(trace.dominant_address());
    interner.intern(trace.dominant_address());
    for (const mobility::DeviceVisit& visit : trace.visits()) {
      interner.intern(visit.address);
      horizon = std::max(horizon, visit.start_hour + visit.duration_hours);
    }
  }

  // Per-vantage timelines are independent; fan out across the pool and
  // return them in router order. `interner` is read-only from here on.
  return exec::parallel_map(routers.size(), [&](std::size_t r) {
    const routing::VantageRouter& router = routers[r];
    DisplacedEntryTimeline timeline;
    timeline.router = std::string(router.name());
    timeline.device_count = traces.size();

    const routing::FrozenFib fib = router.fib().freeze();
    std::vector<const routing::FibEntry*> hits(distinct.size());
    fib.entries_for_many(distinct, hits);
    std::vector<routing::Port> ports(distinct.size(), kNoRoutePort);
    for (std::size_t i = 0; i < hits.size(); ++i) {
      if (hits[i] != nullptr) ports[i] = hits[i]->port;
    }
    const auto port_of = [&](net::Ipv4Address addr) {
      return ports[interner.id_of(addr)];
    };

    double displaced_sum = 0.0;
    std::size_t sample_count = 0;
    for (double hour = 0.0; hour < horizon - 1e-9;
         hour += sample_interval_hours) {
      std::size_t displaced = 0;
      for (std::size_t d = 0; d < traces.size(); ++d) {
        const mobility::DeviceVisit* visit = visit_at(traces[d], hour);
        if (visit == nullptr) continue;
        if (port_of(visit->address) != port_of(homes[d])) ++displaced;
      }
      timeline.samples.emplace_back(hour, displaced);
      timeline.peak = std::max(timeline.peak, displaced);
      displaced_sum += static_cast<double>(displaced);
      ++sample_count;
    }
    timeline.mean_fraction =
        sample_count == 0
            ? 0.0
            : displaced_sum / (static_cast<double>(sample_count) *
                               static_cast<double>(traces.size()));
    return timeline;
  });
}

}  // namespace lina::core
