#include "lina/core/update_cost.hpp"

#include <bit>
#include <iterator>
#include <limits>
#include <stdexcept>

#include "lina/exec/parallel.hpp"
#include "lina/prof/prof.hpp"

namespace lina::core {

namespace {

/// Port value reserved for "no covering prefix" so that uncovered addresses
/// still participate in the displacement comparison.
constexpr routing::Port kNoRoutePort =
    std::numeric_limits<routing::Port>::max();

}  // namespace

DeviceUpdateCostEvaluator::DeviceUpdateCostEvaluator(
    std::span<const routing::VantageRouter> routers)
    : routers_(routers),
      frozen_fibs_(exec::parallel_map(routers.size(), [&](std::size_t r) {
        return routers[r].fib().freeze();
      })) {}

std::vector<RouterUpdateStats> DeviceUpdateCostEvaluator::evaluate(
    std::span<const mobility::DeviceTrace> traces) const {
  return evaluate_filtered(traces, 0.0,
                           std::numeric_limits<double>::infinity());
}

std::vector<RouterUpdateStats> DeviceUpdateCostEvaluator::evaluate_day(
    std::span<const mobility::DeviceTrace> traces, std::size_t day) const {
  const double begin = static_cast<double>(day) * 24.0;
  return evaluate_filtered(traces, begin, begin + 24.0);
}

std::vector<RouterUpdateStats> DeviceUpdateCostEvaluator::evaluate_filtered(
    std::span<const mobility::DeviceTrace> traces, double begin_hour,
    double end_hour) const {
  PROF_SPAN("lina.core.update_cost");
  // Routers are independent tallies, so they fan out across the pool and
  // land back in router order.
  return exec::parallel_map(routers_.size(), [&](std::size_t r) {
    const routing::VantageRouter& router = routers_[r];
    const routing::FrozenFib& fib = frozen_fibs_[r];
    RouterUpdateStats tally{std::string(router.name()), 0, 0};
    const auto port_of = [&](net::Ipv4Address addr) {
      return fib.port_for(addr).value_or(kNoRoutePort);
    };
    for (const mobility::DeviceTrace& trace : traces) {
      for (const mobility::DeviceMobilityEvent& event : trace.events()) {
        if (event.hour < begin_hour || event.hour >= end_hour) continue;
        ++tally.events;
        if (port_of(event.from) != port_of(event.to)) ++tally.updates;
      }
    }
    return tally;
  });
}

void DeviceUpdateCostEvaluator::accumulate(
    std::span<const mobility::DeviceTrace> traces,
    std::vector<RouterUpdateStats>& tallies) const {
  if (tallies.empty()) {
    tallies.reserve(routers_.size());
    for (const routing::VantageRouter& router : routers_) {
      tallies.push_back(RouterUpdateStats{std::string(router.name()), 0, 0});
    }
  }
  if (tallies.size() != routers_.size()) {
    throw std::invalid_argument(
        "DeviceUpdateCostEvaluator::accumulate: tally vector does not match "
        "the router set");
  }
  const std::vector<RouterUpdateStats> batch = evaluate_filtered(
      traces, 0.0, std::numeric_limits<double>::infinity());
  for (std::size_t r = 0; r < tallies.size(); ++r) {
    tallies[r].events += batch[r].events;
    tallies[r].updates += batch[r].updates;
  }
}

ContentUpdateCostEvaluator::ContentUpdateCostEvaluator(
    std::span<const routing::VantageRouter> routers)
    : routers_(routers) {}

namespace {

/// Read-only view of a trace set for one evaluate call. Every distinct
/// address gets a dense id in first-seen order (trace order, then snapshot
/// order, then address order), so the layout depends only on the input.
/// Snapshots are CSR spans of ids: snapshot s is
/// ids[snapshot_begin[s], snapshot_begin[s + 1]), and trace t owns
/// snapshots [trace_begin[t], trace_begin[t + 1]).
struct SnapshotIndex {
  std::vector<net::Ipv4Address> addresses;  // id -> address
  std::vector<std::uint32_t> ids;
  std::vector<std::size_t> snapshot_begin{0};
  std::vector<std::size_t> trace_begin{0};
};

/// Open-addressed address -> id table (linear probing, power-of-two
/// capacity kept at most half full). Slots hold ids into `addresses`.
class AddressInterner {
 public:
  explicit AddressInterner(std::vector<net::Ipv4Address>& addresses)
      : addresses_(addresses) {
    rehash(1024);
  }

  std::uint32_t intern(net::Ipv4Address addr) {
    std::uint32_t& slot = find(addr);
    if (slot != kEmpty) return slot;
    const auto id = static_cast<std::uint32_t>(addresses_.size());
    addresses_.push_back(addr);
    slot = id;
    if (2 * addresses_.size() > slots_.size()) rehash(2 * slots_.size());
    return id;
  }

 private:
  static constexpr std::uint32_t kEmpty =
      std::numeric_limits<std::uint32_t>::max();

  /// The slot holding `addr`'s id, or the empty slot where it belongs.
  std::uint32_t& find(net::Ipv4Address addr) {
    const std::size_t mask = slots_.size() - 1;
    // Fibonacci hashing: the top bits of a multiplicative hash.
    std::size_t i = static_cast<std::size_t>(
        (std::uint64_t{addr.value()} * 0x9E3779B97F4A7C15ull) >> shift_);
    while (slots_[i] != kEmpty && addresses_[slots_[i]] != addr) {
      i = (i + 1) & mask;
    }
    return slots_[i];
  }

  void rehash(std::size_t capacity) {
    slots_.assign(capacity, kEmpty);
    shift_ = 64 - std::countr_zero(capacity);
    for (std::uint32_t id = 0; id < addresses_.size(); ++id) {
      find(addresses_[id]) = id;
    }
  }

  std::vector<net::Ipv4Address>& addresses_;
  std::vector<std::uint32_t> slots_;
  int shift_ = 0;
};

/// Interns every snapshot of every trace. Works for any trace type exposing
/// snapshots() whose elements carry `.addresses`.
template <typename Traces>
SnapshotIndex build_index(const Traces& traces) {
  PROF_SPAN("lina.core.content_index");
  SnapshotIndex index;
  // Exact sizes up front, so the index holds 4 B per address occurrence
  // with no growth slack.
  std::size_t snapshots = 0, occurrences = 0;
  for (const auto& trace : traces) {
    for (const auto& snapshot : trace.snapshots()) {
      ++snapshots;
      occurrences += snapshot.addresses.size();
    }
  }
  index.ids.reserve(occurrences);
  index.snapshot_begin.reserve(snapshots + 1);
  index.trace_begin.reserve(std::size(traces) + 1);
  AddressInterner interner(index.addresses);
  for (const auto& trace : traces) {
    for (const auto& snapshot : trace.snapshots()) {
      for (const net::Ipv4Address addr : snapshot.addresses) {
        index.ids.push_back(interner.intern(addr));
      }
      index.snapshot_begin.push_back(index.ids.size());
    }
    index.trace_begin.push_back(index.snapshot_begin.size() - 1);
  }
  return index;
}

/// Shared §3.3.1 replay: each principal's snapshot sequence goes through
/// the router's strategy, reset per principal; changes after the first
/// observation count as updates.
template <typename Traces>
std::vector<RouterUpdateStats> evaluate_snapshot_series(
    std::span<const routing::VantageRouter> routers, const Traces& traces,
    strategy::StrategyKind kind) {
  PROF_SPAN("lina.core.snapshot_update_cost");
  const SnapshotIndex index = build_index(traces);
  const std::size_t trace_count = index.trace_begin.size() - 1;
  // Routers only read the index, so they parallelize cleanly; results
  // come back in router order.
  return exec::parallel_map(routers.size(), [&](std::size_t r) {
    const routing::VantageRouter& router = routers[r];
    RouterUpdateStats tally{std::string(router.name()), 0, 0};
    // One batched longest-prefix match per distinct address: the FIB is
    // fixed for the whole evaluation, so entry_of[id] serves every
    // occurrence of that address.
    const routing::FrozenFib fib = router.fib().freeze();
    std::vector<const routing::FibEntry*> entry_of(index.addresses.size());
    fib.entries_for_many(index.addresses, entry_of);
    const auto strat = strategy::make_strategy(kind);
    std::vector<const routing::FibEntry*> entries;
    for (std::size_t t = 0; t < trace_count; ++t) {
      strat->reset();
      const std::size_t first = index.trace_begin[t];
      for (std::size_t s = first; s < index.trace_begin[t + 1]; ++s) {
        entries.clear();
        for (std::size_t i = index.snapshot_begin[s];
             i < index.snapshot_begin[s + 1]; ++i) {
          entries.push_back(entry_of[index.ids[i]]);
        }
        const bool updated = strat->observe(entries);
        if (s != first) {
          ++tally.events;
          if (updated) ++tally.updates;
        }
      }
    }
    return tally;
  });
}

}  // namespace

std::vector<RouterUpdateStats> ContentUpdateCostEvaluator::evaluate(
    std::span<const mobility::ContentTrace> traces,
    strategy::StrategyKind kind) const {
  return evaluate_snapshot_series(routers_, traces, kind);
}

MultihomedDeviceUpdateCostEvaluator::MultihomedDeviceUpdateCostEvaluator(
    std::span<const routing::VantageRouter> routers)
    : routers_(routers) {}

std::vector<RouterUpdateStats> MultihomedDeviceUpdateCostEvaluator::evaluate(
    std::span<const mobility::MultihomedDeviceTrace> traces,
    strategy::StrategyKind kind) const {
  return evaluate_snapshot_series(routers_, traces, kind);
}

}  // namespace lina::core
