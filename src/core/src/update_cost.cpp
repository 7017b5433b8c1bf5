#include "lina/core/update_cost.hpp"

#include <iterator>
#include <limits>
#include <stdexcept>

#include "address_interner.hpp"
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

/// A block of the content index closes after the first trace that brings
/// it to at least this many address occurrences. Fixed, so the blocks
/// depend only on the input, never on the thread count.
constexpr std::size_t kBlockOccurrences = std::size_t{1} << 16;

/// Read-only view of a run of whole traces, interned on its own. Every
/// distinct address of the block gets a block-local id in first-seen
/// order (trace order, then snapshot order, then address order).
/// Snapshots are CSR spans of ids: snapshot s is
/// ids[snapshot_end[s - 1], snapshot_end[s]) (from 0 for s = 0), and
/// trace t owns snapshots [trace_end[t - 1], trace_end[t]).
struct IndexBlock {
  std::vector<net::Ipv4Address> addresses;  // block-local id -> address
  std::vector<std::uint32_t> ids;
  std::vector<std::size_t> snapshot_end;
  std::vector<std::size_t> trace_end;
};

/// Interns traces [first, last), which hold `occurrences` addresses.
/// Works for any trace span whose elements expose snapshots() with
/// `.addresses`.
template <typename Traces>
IndexBlock intern_block(const Traces& traces, std::size_t first,
                        std::size_t last, std::size_t occurrences) {
  IndexBlock block;
  // Exact sizes up front, so the block holds 4 B per address occurrence
  // with no growth slack.
  std::size_t snapshots = 0;
  for (std::size_t t = first; t < last; ++t) {
    snapshots += traces[t].snapshots().size();
  }
  block.ids.reserve(occurrences);
  block.snapshot_end.reserve(snapshots);
  block.trace_end.reserve(last - first);
  detail::AddressInterner interner(block.addresses);
  for (std::size_t t = first; t < last; ++t) {
    for (const auto& snapshot : traces[t].snapshots()) {
      for (const net::Ipv4Address addr : snapshot.addresses) {
        block.ids.push_back(interner.intern(addr));
      }
      block.snapshot_end.push_back(block.ids.size());
    }
    block.trace_end.push_back(block.snapshot_end.size());
  }
  return block;
}

/// Cuts the traces into blocks of at least kBlockOccurrences address
/// occurrences (the last may hold fewer) and interns each block in
/// parallel. No global id space: an address seen in two blocks is
/// resolved twice, which costs less than a serial merge.
template <typename Traces>
std::vector<IndexBlock> build_index(const Traces& traces) {
  PROF_SPAN("lina.core.content_index");
  const std::size_t trace_count = std::size(traces);
  const std::vector<std::size_t> occurrences =
      exec::parallel_map(trace_count, [&](std::size_t t) {
        std::size_t n = 0;
        for (const auto& snapshot : traces[t].snapshots()) {
          n += snapshot.addresses.size();
        }
        return n;
      });
  struct Range {
    std::size_t first, last, occurrences;
  };
  std::vector<Range> ranges;
  Range open{0, 0, 0};
  for (std::size_t t = 0; t < trace_count; ++t) {
    open.occurrences += occurrences[t];
    open.last = t + 1;
    if (open.occurrences >= kBlockOccurrences) {
      ranges.push_back(open);
      open = Range{t + 1, t + 1, 0};
    }
  }
  if (open.last > open.first) ranges.push_back(open);
  return exec::parallel_map(ranges.size(), [&](std::size_t b) {
    return intern_block(traces, ranges[b].first, ranges[b].last,
                        ranges[b].occurrences);
  });
}

/// Shared §3.3.1 replay: each principal's snapshot sequence goes through
/// the router's strategy, reset per principal; changes after the first
/// observation count as updates.
template <typename Traces>
std::vector<RouterUpdateStats> evaluate_snapshot_series(
    std::span<const routing::VantageRouter> routers, const Traces& traces,
    strategy::StrategyKind kind) {
  PROF_SPAN("lina.core.snapshot_update_cost");
  const std::vector<IndexBlock> index = build_index(traces);
  // Routers only read the index, so they parallelize cleanly; results
  // come back in router order.
  return exec::parallel_map(routers.size(), [&](std::size_t r) {
    const routing::VantageRouter& router = routers[r];
    RouterUpdateStats tally{std::string(router.name()), 0, 0};
    const routing::FrozenFib fib = router.fib().freeze();
    const auto strat = strategy::make_strategy(kind);
    std::vector<const routing::FibEntry*> entry_of;
    std::vector<const routing::FibEntry*> entries;
    for (const IndexBlock& block : index) {
      // One batched longest-prefix match per distinct address of the
      // block: the FIB is fixed for the whole evaluation, so
      // entry_of[id] serves every occurrence of that address.
      entry_of.resize(block.addresses.size());
      fib.entries_for_many(block.addresses, entry_of);
      std::size_t s = 0, i = 0;
      for (const std::size_t trace_end : block.trace_end) {
        strat->reset();
        for (const std::size_t first = s; s < trace_end; ++s) {
          entries.clear();
          for (; i < block.snapshot_end[s]; ++i) {
            entries.push_back(entry_of[block.ids[i]]);
          }
          const bool updated = strat->observe(entries);
          if (s != first) {
            ++tally.events;
            if (updated) ++tally.updates;
          }
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
