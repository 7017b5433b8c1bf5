#pragma once

#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "lina/routing/fib.hpp"

namespace lina::strategy {

/// Which §3.3.1 forwarding strategy a content router runs.
enum class StrategyKind : std::uint8_t {
  kBestPort,           // forward on the single most-preferred eligible port
  kControlledFlooding, // forward on every eligible port
  kHistoryUnion,       // §3.3.3: eligible ports of the union of all past
                       // addresses — trades forwarding traffic for updates
};

[[nodiscard]] std::string_view strategy_name(StrategyKind kind);

/// Tracks one router's forwarding state for one principal (device or content
/// name) across its sequence of address-set observations, and reports
/// whether each observation changed the state — i.e. the per-event update
/// cost of §3.3.1 (1 if changed, 0 otherwise).
///
/// Usage: construct one instance per router, call `reset` before each
/// principal's series, then `observe` once per snapshot in time order. The
/// first observation initializes state and never counts as an update.
/// Strategies see the router's resolved FIB entries, never addresses: the
/// caller does the longest-prefix matches (once per distinct address for a
/// whole evaluation, since a FIB is fixed while it runs).
class ForwardingStrategy {
 public:
  virtual ~ForwardingStrategy() = default;

  ForwardingStrategy(const ForwardingStrategy&) = delete;
  ForwardingStrategy& operator=(const ForwardingStrategy&) = delete;

  [[nodiscard]] virtual StrategyKind kind() const = 0;
  [[nodiscard]] std::string_view name() const {
    return strategy_name(kind());
  }

  /// Observes the principal's address set at the next instant, given as
  /// the router's entry for each address in snapshot order (nullptr = no
  /// covering prefix); returns true iff the router must update its
  /// forwarding state for this principal.
  virtual bool observe(
      std::span<const routing::FibEntry* const> entries) = 0;

  /// The ports the router currently forwards on for this principal, sorted
  /// and de-duplicated (at most one for best-port; empty before any
  /// observation or when no address has a route). Valid until the next
  /// observe or reset.
  [[nodiscard]] std::span<const routing::Port> current_ports() const {
    return ports_;
  }

  /// Forgets all state (keeps buffer capacity for the next series).
  void reset() {
    ports_.clear();
    initialized_ = false;
  }

 protected:
  ForwardingStrategy() = default;

  /// Installs `next_` (sorted, de-duplicated) as the forwarding state;
  /// returns true iff it differs from the previous state and this is not
  /// the series' first observation.
  bool commit_next();

  std::vector<routing::Port> ports_;
  std::vector<routing::Port> next_;  // reused candidate buffer
  bool initialized_ = false;
};

/// Factory for the three strategies.
[[nodiscard]] std::unique_ptr<ForwardingStrategy> make_strategy(
    StrategyKind kind);

/// The set of eligible ports for an address set at a router, F(R,d,t)
/// (§3.3.1): the ports of the routed entries, written sorted and
/// de-duplicated into `out` (cleared first).
void eligible_ports(std::span<const routing::FibEntry* const> entries,
                    std::vector<routing::Port>& out);

/// The most-preferred routed entry, best(FIB(R,d,t)) under
/// routing::entry_preferred (whose last tie-break is the port, so the
/// chosen port never depends on address order). nullptr when none is
/// routed.
[[nodiscard]] const routing::FibEntry* best_entry(
    std::span<const routing::FibEntry* const> entries);

}  // namespace lina::strategy
