#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "lina/mobility/content_trace.hpp"
#include "lina/mobility/device_multihoming.hpp"
#include "lina/mobility/device_trace.hpp"
#include "lina/routing/vantage_router.hpp"
#include "lina/strategy/forwarding_strategy.hpp"

namespace lina::core {

/// Per-router update-cost tally: how many of the workload's mobility events
/// forced this router to change its forwarding state. `rate()` is the
/// y-axis of the paper's Figures 8, 11(b) and 11(c).
struct RouterUpdateStats {
  std::string router;
  std::size_t events = 0;
  std::size_t updates = 0;

  [[nodiscard]] double rate() const {
    return events == 0 ? 0.0
                       : static_cast<double>(updates) /
                             static_cast<double>(events);
  }
};

/// Evaluates the name-based-routing update cost of *device* mobility (§6.2):
/// a mobility event from address a to address b induces an update at router
/// R iff R's longest-prefix-match port for a differs from that for b
/// (the §3.1 "displacement" condition, with the §6.2.2 next-hop-as-port
/// proxy). Addresses outside R's FIB count as a distinct "no route" port.
class DeviceUpdateCostEvaluator {
 public:
  explicit DeviceUpdateCostEvaluator(
      std::span<const routing::VantageRouter> routers);

  /// Update rate per router over every event of every trace.
  [[nodiscard]] std::vector<RouterUpdateStats> evaluate(
      std::span<const mobility::DeviceTrace> traces) const;

  /// Update rate per router restricted to events in day `day` — the unit of
  /// the paper's 20-day time-sensitivity analysis.
  [[nodiscard]] std::vector<RouterUpdateStats> evaluate_day(
      std::span<const mobility::DeviceTrace> traces, std::size_t day) const;

  /// Streamed form: folds a user-ordered batch into persistent per-router
  /// tallies (`tallies` empty on the first call → initialized to one entry
  /// per router). Event/update counts are order-independent integer sums,
  /// so feeding the workload in any batching reproduces evaluate()
  /// bit-for-bit while holding only one batch resident.
  void accumulate(std::span<const mobility::DeviceTrace> traces,
                  std::vector<RouterUpdateStats>& tallies) const;

 private:
  [[nodiscard]] std::vector<RouterUpdateStats> evaluate_filtered(
      std::span<const mobility::DeviceTrace> traces, double begin_hour,
      double end_hour) const;

  std::span<const routing::VantageRouter> routers_;
  // Frozen FIB snapshot per router, built in the constructor: lookups walk
  // the flat preorder arena rather than the live trie, and evaluate calls
  // only read it (safe from any number of threads). FIBs are immutable for
  // the evaluator's lifetime.
  std::vector<routing::FrozenFib> frozen_fibs_;
};

/// Evaluates the update cost of *content* mobility (§7.2) under a chosen
/// forwarding strategy: each trace's snapshot sequence is replayed through
/// the router's strategy instance (reset per name); an event counts as an
/// update at a router iff the strategy's forwarding state changed.
///
/// Each evaluate call cuts the traces into fixed blocks of whole traces
/// and interns each block's addresses on its own, in parallel (DESIGN.md
/// §4k). Routers then fan out across the lina::exec pool; each resolves
/// a block's distinct addresses with one batched longest-prefix match and
/// folds that block's snapshots through the strategy.
class ContentUpdateCostEvaluator {
 public:
  explicit ContentUpdateCostEvaluator(
      std::span<const routing::VantageRouter> routers);

  [[nodiscard]] std::vector<RouterUpdateStats> evaluate(
      std::span<const mobility::ContentTrace> traces,
      strategy::StrategyKind kind) const;

 private:
  std::span<const routing::VantageRouter> routers_;
};

/// Evaluates the update cost of *multihomed* device mobility (§3.3 applied
/// to devices): the device exposes an address set that evolves over time;
/// the chosen forwarding strategy decides which set changes are updates.
class MultihomedDeviceUpdateCostEvaluator {
 public:
  explicit MultihomedDeviceUpdateCostEvaluator(
      std::span<const routing::VantageRouter> routers);

  [[nodiscard]] std::vector<RouterUpdateStats> evaluate(
      std::span<const mobility::MultihomedDeviceTrace> traces,
      strategy::StrategyKind kind) const;

 private:
  std::span<const routing::VantageRouter> routers_;
};

}  // namespace lina::core
