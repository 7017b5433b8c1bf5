#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "lina/cache/policy.hpp"
#include "lina/core/backoff.hpp"
#include "lina/sim/fabric.hpp"
#include "lina/sim/failure_plan.hpp"
#include "lina/stats/cdf.hpp"

namespace lina::sim {

/// Which location-independence machinery carries the session's packets.
enum class SimArchitecture : std::uint8_t {
  kIndirection,          // home agent registration + triangle forwarding
  kNameResolution,       // resolver + TTL-cached direct sending
  kNameBased,            // per-router belief updated by a flooding wavefront
  kReplicatedResolution, // GNS-style geo-replicated resolver pool [49]
};

[[nodiscard]] std::string_view sim_architecture_name(SimArchitecture arch);

/// One attachment change of the mobile endpoint.
struct MobilityStep {
  double time_ms = 0.0;  // first step must be at 0 (initial attachment)
  topology::AsId as = 0;
};

// The rules every packet front-end shares: simulate_session,
// simulate_content_session and des::PacketModel. `who` prefixes every
// error message, and the lookups take schedules that validate_schedule
// accepted.

/// The schedule check: a first step at time 0, then finite, strictly
/// increasing times (else std::invalid_argument), and every AS below
/// `as_count` (else std::out_of_range).
void validate_schedule(std::span<const MobilityStep> schedule,
                       std::size_t as_count, std::string_view who);

/// Throws std::invalid_argument naming `field` unless `value` is finite
/// and positive (an infinite duration would never end a send loop).
void require_finite_positive(double value, std::string_view who,
                             std::string_view field);

/// Throws std::out_of_range when a fault names an AS outside the graph.
void validate_failure_plan(const FailurePlan& plan, std::size_t as_count,
                           std::string_view who);

/// Where the mobile is `time_ms` after its schedule starts: the last step
/// at or before it.
[[nodiscard]] topology::AsId location_at(
    std::span<const MobilityStep> schedule, double time_ms);

/// What an element believes at absolute time `time_ms`: the newest step
/// whose news has reached it. A step happens at start_ms + step.time_ms,
/// and its news arrives `lag(step)` later (nullopt: never); an arrival
/// exactly at `time_ms` counts. Steps after `time_ms` are skipped before
/// `lag` is asked. The initial attachment is always known.
template <typename Lag>
[[nodiscard]] topology::AsId newest_known_step(
    std::span<const MobilityStep> schedule, double time_ms, double start_ms,
    Lag&& lag) {
  auto it = std::upper_bound(schedule.begin() + 1, schedule.end(), time_ms,
                             [&](double t, const MobilityStep& step) {
                               return t < start_ms + step.time_ms;
                             });
  while (it != schedule.begin() + 1) {
    --it;
    const std::optional<double> delay = lag(*it);
    if (delay.has_value() && start_ms + it->time_ms + *delay <= time_ms)
      return it->as;
  }
  return schedule.front().as;
}

/// How long the name-update flood takes to travel `hops` physical AS hops.
[[nodiscard]] inline double wavefront_lag_ms(std::size_t hops,
                                             double update_hop_ms) {
  return update_hop_ms * static_cast<double>(hops);
}

/// Name-based routing: the attachment `router` believes under the
/// name-update flood (newest_known_step with wavefront_lag_ms). A router
/// more than `scope_hops` physical hops from a move never learns it
/// (SIZE_MAX = global flooding).
[[nodiscard]] topology::AsId wavefront_belief(
    const ForwardingFabric& fabric, std::span<const MobilityStep> schedule,
    topology::AsId router, double time_ms, double update_hop_ms,
    std::size_t scope_hops, double start_ms = 0.0);

/// Exponential-backoff retransmission policy for control-plane operations
/// (registrations, lookups, update relays). Only consulted when a
/// FailurePlan injects faults; the failure-free simulator never retries
/// because nothing ever fails.
using RetryPolicy = core::BackoffPolicy;

/// A correspondent streaming constant-bit-rate packets at a mobile device.
struct SessionConfig {
  topology::AsId correspondent = 0;
  std::vector<MobilityStep> schedule;  // time-ordered, first at 0
  double packet_interval_ms = 20.0;
  double duration_ms = 10000.0;

  /// Indirection: the home agent AS (defaults to the initial attachment).
  std::optional<topology::AsId> home_as;

  /// Name resolution: resolver AS and the correspondent's cache lifetime.
  std::optional<topology::AsId> resolver_as;
  double resolver_ttl_ms = 500.0;

  /// Replicated resolution: replica ASes of the GNS-style pool (must be
  /// non-empty for kReplicatedResolution).
  std::vector<topology::AsId> resolver_replicas;

  /// Name-based routing: the per-AS-hop latency of the update wavefront
  /// that re-points router beliefs after a move.
  double update_hop_ms = 5.0;

  /// Name-based routing: flooding scope in physical AS hops around the new
  /// attachment (§8's hybrid direction). Routers beyond the scope keep
  /// their older belief, at worst the initial (globally announced)
  /// attachment, so scoped flooding suits metro-local mobility. SIZE_MAX =
  /// global flooding.
  std::size_t update_scope_hops = SIZE_MAX;

  /// Packets are dropped after this many forwarding hops (transient loops
  /// during name-based convergence).
  std::size_t packet_ttl_hops = 64;

  /// Fault injection. nullptr runs the session under the shared empty
  /// plan (no_failures()), so nullptr and an empty plan give bit-identical
  /// results. The plan must outlive the simulate_session call.
  const FailurePlan* failures = nullptr;

  /// Control-plane retry behaviour under injected faults.
  RetryPolicy retry;

  /// Correspondent-side loc/ID mapping cache (DESIGN.md §4h). Off by
  /// default — a disabled cache leaves every architecture bit-identical
  /// to the pre-cache simulator. When enabled:
  ///  - indirection: a Mobile-IPv6-style binding cache. A hit sends the
  ///    packet straight to the cached care-of AS (no triangle); a miss
  ///    goes via the home agent, which pushes a binding update back to
  ///    the correspondent. Registrations landing at the home agent push
  ///    churn notifications that invalidate/refresh the cached binding.
  ///  - name resolution / replicated resolution: the periodic TTL
  ///    re-resolution loop is replaced by demand resolution. A hit sends
  ///    immediately to the cached location; a miss makes the packet ride
  ///    a resolver round trip, installs the answer, then sends. Location
  ///    updates landing at the (lookup) resolver push churn
  ///    notifications down the update stream.
  ///  - name-based routing has no resolution step, so the cache is
  ///    ignored there.
  /// Churn notifications count as control messages; cache activity is
  /// reported in SessionStats::mapping_cache.
  cache::CacheConfig mapping_cache;
};

/// Delivery metrics of one simulated session.
struct SessionStats {
  std::size_t packets_sent = 0;
  std::size_t packets_delivered = 0;
  std::size_t packets_lost = 0;
  std::size_t control_messages = 0;  // registrations / resolutions / updates

  stats::EmpiricalCdf delivery_delay_ms;
  /// Delivered delay divided by the direct-path delay at delivery time —
  /// the multiplicative data-path stretch.
  stats::EmpiricalCdf stretch;
  /// Per mobility event: time until the first post-move delivery.
  stats::EmpiricalCdf outage_ms;

  // Resilience metrics; all zero / empty when no FailurePlan is attached.

  /// Control retransmissions (attempts beyond the first per operation);
  /// the control-message amplification a failure causes is
  /// control_retries / (control_messages - control_retries).
  std::size_t control_retries = 0;
  /// Packets whose send instant fell inside any active fault window.
  std::size_t packets_sent_during_failure = 0;
  /// ...and how many of those still made it (delayed / degraded rather
  /// than lost — e.g. over a detour route).
  std::size_t packets_delivered_during_failure = 0;
  /// Per repair instant: time until the first subsequent delivery — the
  /// architecture's time-to-recover.
  stats::EmpiricalCdf recovery_ms;
  /// Stretch of packets sent while a fault was active — degraded-mode
  /// routing quality (compare against `stretch`).
  stats::EmpiricalCdf stretch_degraded;

  /// Correspondent mapping-cache counters; all zero when the cache is
  /// disabled (SessionConfig::mapping_cache).
  cache::CacheStats mapping_cache;

  [[nodiscard]] double delivery_ratio() const {
    return packets_sent == 0
               ? 0.0
               : static_cast<double>(packets_delivered) /
                     static_cast<double>(packets_sent);
  }

  /// Fraction of packets sent during fault windows that were lost.
  [[nodiscard]] double failure_loss_fraction() const {
    return packets_sent_during_failure == 0
               ? 0.0
               : 1.0 - static_cast<double>(packets_delivered_during_failure) /
                           static_cast<double>(packets_sent_during_failure);
  }
};

/// Runs one correspondent->mobile session under the chosen architecture on
/// a packet-by-packet discrete-event simulation over the fabric. Validates
/// the §2/§5 trade-offs dynamically: indirection pays stretch, name
/// resolution pays staleness on mobility, name-based routing pays
/// convergence (and router updates) but no steady-state stretch.
/// Throws std::invalid_argument on malformed configs, naming the field
/// when a timing or delay is non-finite or non-positive.
[[nodiscard]] SessionStats simulate_session(const ForwardingFabric& fabric,
                                            SimArchitecture architecture,
                                            const SessionConfig& config);

}  // namespace lina::sim
