#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "lina/topology/as_graph.hpp"

namespace lina::sim {

/// What breaks. AS outages and link cuts impair the data plane (packets
/// must route around them or are lost); home-agent and resolver crashes
/// kill one architecture's control-plane process while its hosting AS
/// keeps forwarding transit traffic; update loss drops individual control
/// messages with a seeded coin.
enum class FailureKind : std::uint8_t {
  kAsOutage,        // the whole AS goes dark: no transit, no delivery
  kLinkCut,         // one inter-AS adjacency down (both directions)
  kHomeAgentCrash,  // the indirection home agent hosted at `element`
  kResolverCrash,   // the resolver / GNS replica hosted at `element`
  kUpdateLoss,      // control messages dropped w.p. loss_probability
};

[[nodiscard]] std::string_view failure_kind_name(FailureKind kind);

/// One scheduled fault, active over [start_ms, end_ms); end_ms is the
/// repair instant.
struct FailureEvent {
  FailureKind kind = FailureKind::kAsOutage;
  double start_ms = 0.0;
  double end_ms = 0.0;
  topology::AsId element = 0;    // the AS (outage / crash) or link end a
  topology::AsId element_b = 0;  // link end b (kLinkCut only)
  double loss_probability = 1.0;  // kUpdateLoss only
};

/// A deterministic, seedable schedule of faults injected into a session.
///
/// The plan is pure data plus point-in-time queries; the simulators and
/// the ForwardingFabric consult it at every forwarding and control-plane
/// decision. An empty plan is "failure-free": every query answers healthy,
/// so a session under it never retries, reroutes or drops a message.
class FailurePlan {
 public:
  FailurePlan() = default;
  /// `seed` drives only the kUpdateLoss coin; everything else is exact.
  explicit FailurePlan(std::uint64_t seed) : seed_(seed) {}

  /// Adds one fault. Throws std::invalid_argument on a non-finite window
  /// bound, end <= start, negative start, a self-loop link cut, or a loss
  /// probability that is NaN or outside [0, 1].
  FailurePlan& add(const FailureEvent& event);

  FailurePlan& as_outage(topology::AsId as, double start_ms, double end_ms);
  FailurePlan& link_cut(topology::AsId a, topology::AsId b, double start_ms,
                        double end_ms);
  FailurePlan& home_agent_crash(topology::AsId as, double start_ms,
                                double end_ms);
  FailurePlan& resolver_crash(topology::AsId as, double start_ms,
                              double end_ms);
  FailurePlan& update_loss(double probability, double start_ms,
                           double end_ms);

  [[nodiscard]] bool empty() const { return events_.empty(); }
  [[nodiscard]] const std::vector<FailureEvent>& events() const {
    return events_;
  }
  [[nodiscard]] std::uint64_t seed() const { return seed_; }

  /// Identity stamp for route caches: distinct across plans with distinct
  /// fault sets (bumped on every add). Copies share the stamp until
  /// modified, which is sound — equal fault sets imply equal routes.
  [[nodiscard]] std::uint64_t stamp() const { return stamp_; }

  [[nodiscard]] bool as_down(topology::AsId as, double time_ms) const;
  [[nodiscard]] bool link_down(topology::AsId a, topology::AsId b,
                               double time_ms) const;
  /// Crash queries include kAsOutage of the hosting AS: a dark AS takes
  /// its control-plane processes with it.
  [[nodiscard]] bool home_agent_down(topology::AsId as, double time_ms) const;
  [[nodiscard]] bool resolver_down(topology::AsId as, double time_ms) const;

  /// Any fault of any kind active at `time_ms` (used to classify packets
  /// as sent "during failure").
  [[nodiscard]] bool any_active(double time_ms) const;

  /// An AS outage or link cut is active: forwarding decisions must consult
  /// the failure-aware fabric paths.
  [[nodiscard]] bool data_plane_impaired(double time_ms) const;

  /// Seeded, order-independent coin for a session's `message_id`-th
  /// control message sent at `time_ms`: true iff an active kUpdateLoss
  /// window drops it. With overlapping windows the drop probability
  /// composes as 1 - prod(1 - p_i).
  [[nodiscard]] bool control_message_lost(std::uint64_t message_id,
                                          double time_ms) const;

  /// Index of the piecewise-constant interval of "which data-plane
  /// elements are dead" containing `time_ms`; a stable cache key for
  /// failure-aware route trees.
  [[nodiscard]] std::size_t data_plane_epoch(double time_ms) const;

  /// Sorted distinct repair instants (event end times) of every fault;
  /// sessions use these to measure time-to-recover.
  [[nodiscard]] std::vector<double> repair_times() const;

 private:
  std::uint64_t seed_ = 0;
  std::uint64_t stamp_ = 0;
  std::vector<FailureEvent> events_;
  std::vector<double> data_plane_boundaries_;  // sorted starts/ends
};

/// The shared empty plan a simulator runs under when no plan is attached.
[[nodiscard]] const FailurePlan& no_failures();

}  // namespace lina::sim
