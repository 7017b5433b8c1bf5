#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "lina/mobility/content_trace.hpp"
#include "lina/routing/fib.hpp"
#include "lina/routing/name_fib.hpp"
#include "lina/routing/vantage_router.hpp"

namespace lina::core {

/// Per-router forwarding-table compaction achieved by longest-prefix
/// matching over the hierarchical content name space (§3.3.2, Figure 12).
struct AggregateabilityResult {
  std::string router;
  std::size_t complete_entries = 0;  // one per content name with a route
  std::size_t lpm_entries = 0;       // after subsumption
  std::size_t table_bytes = 0;       // deterministic live-table footprint

  /// The paper's aggregateability metric: complete / LPM table size.
  [[nodiscard]] double ratio() const {
    return lpm_entries == 0
               ? 0.0
               : static_cast<double>(complete_entries) /
                     static_cast<double>(lpm_entries);
  }
};

/// Builds one router's complete best-port name table (§3.3.1): announces
/// each name of `batch`, in order, on the port of the router's
/// most-preferred entry over the name's final address set, resolved
/// through the router's frozen FIB. Names with no routed address are
/// skipped. Feeding a catalog in batches builds the same table as feeding
/// it whole. Aggregateability and rename displacement both start here.
void announce_best_ports(const routing::FrozenFib& fib,
                         std::span<const mobility::ContentTrace> batch,
                         routing::NameFib& table);

/// Builds, per router, the complete name-based forwarding table over the
/// catalog's final address sets under best-port forwarding, then counts the
/// entries longest-prefix matching subsumes (an entry whose port equals its
/// nearest stored ancestor's port is redundant, Figure 3).
[[nodiscard]] std::vector<AggregateabilityResult> evaluate_aggregateability(
    std::span<const routing::VantageRouter> routers,
    std::span<const mobility::ContentTrace> traces);

/// Batched form for streamed catalogs: feed the traces in catalog order in
/// batches of any size; resident state is each router's name table (one
/// entry per routable name) plus its frozen FIB — never the snapshot
/// history. Insertion order matches the one-shot function, so
/// finish() is bit-identical to evaluate_aggregateability.
class AggregateabilityAccumulator {
 public:
  explicit AggregateabilityAccumulator(
      std::span<const routing::VantageRouter> routers);

  void accumulate(std::span<const mobility::ContentTrace> batch);

  [[nodiscard]] std::vector<AggregateabilityResult> finish() const;

 private:
  struct RouterState {
    const routing::VantageRouter* router;
    routing::FrozenFib fib;
    routing::NameFib table;
  };

  std::vector<std::unique_ptr<RouterState>> states_;
};

}  // namespace lina::core
