#pragma once

#include <cstdint>
#include <vector>

#include "lina/mobility/device_trace.hpp"
#include "lina/routing/synthetic_internet.hpp"
#include "lina/stats/rng.hpp"

namespace lina::mobility {

/// Calibration knobs for the NomadLog-substitute workload (DESIGN.md §1).
/// Defaults are tuned so the generated population reproduces the paper's §4
/// and §6 anchors: 372 users, median 3 IP / 2 prefix / 2 AS distinct
/// locations per day, >20% of users above 10 IP transitions/day, maximum
/// average AS-transition rate ≈30/day, ≈40% of users spending ≈70% of the
/// day at the dominant IP and ≈85% at the dominant AS.
struct DeviceWorkloadConfig {
  std::size_t user_count = 372;
  std::size_t days = 30;

  /// Per-user mean daily IP transition rate: log-normal across users.
  double median_daily_transitions = 3.6;
  double transition_sigma = 1.45;
  double min_daily_rate = 0.25;
  double max_daily_rate = 45.0;

  /// Probability a transition crosses to a different AS (per user, the
  /// center of a clamped normal).
  double cross_as_probability_mean = 0.32;
  double cross_as_probability_stddev = 0.15;

  /// Probability the user's mobile carrier is (one of) the home ISP's
  /// upstream transit provider(s) — metro networks share infrastructure,
  /// which is what keeps remote routers' update rates moderate (§6.2).
  double cellular_shares_home_upstream = 0.85;

  /// Probability a within-AS connectivity event at home/work actually
  /// changes the address (DHCP lease change); otherwise the device
  /// reattaches with the same address and no mobility event occurs.
  double lease_change_probability = 0.35;

  /// Fraction of users with a distinct work network.
  double work_probability = 0.85;

  /// Probability the work network is chosen among stubs sharing a transit
  /// provider with the home ISP (same-metro infrastructure).
  double work_shares_home_upstream = 0.6;

  /// Probability the home ISP is a single-homed stub (residential access
  /// networks funnel through one transit).
  double home_single_homed_preference = 0.75;

  /// Extra rarely visited locations per user (coffee shops, travel).
  std::size_t max_extra_locations = 4;

  /// Probability an extra location shares transit with home (same metro).
  double extra_shares_home_upstream = 0.6;

  /// Relative expected dwell time by location type.
  double home_weight = 8.0;
  double work_weight = 4.5;
  double cellular_weight = 0.8;
  double other_weight = 1.0;

  /// Population placement: share of users near US / EU / South-America
  /// metro anchors (the paper's user base).
  double us_share = 0.5;
  double eu_share = 0.3;  // remainder is South America

  std::uint64_t seed = 7;
};

/// Generates per-user device traces over a synthetic Internet.
///
/// Each user has a home stub AS, usually a work stub AS, a cellular
/// provider (a prefix-announcing tier-2), and a few extra locations, all
/// near one metro region. Days are built as visit sequences: transitions
/// either hop across ASes (home/work/cellular/other, weighted) or stay
/// within the AS with a fresh address (DHCP/AP churn). Home and work keep
/// stable addresses; cellular attachments draw fresh addresses per connect.
class DeviceWorkloadGenerator {
 public:
  DeviceWorkloadGenerator(const routing::SyntheticInternet& internet,
                          DeviceWorkloadConfig config = {});

  /// Generates the full population (deterministic for a given config).
  [[nodiscard]] std::vector<DeviceTrace> generate() const;

  /// Generates a single user's trace (user ids give independent streams).
  [[nodiscard]] DeviceTrace generate_user(std::uint32_t user_id) const;

  [[nodiscard]] const DeviceWorkloadConfig& config() const { return config_; }

 private:
  /// A host address with the announced prefix it was drawn from, so a
  /// visit never has to look its prefix up.
  struct Attachment {
    net::Ipv4Address address;
    net::Prefix prefix;
  };

  struct UserProfile {
    topology::AsId home_as;
    topology::AsId work_as;  // == home_as when the user has no work network
    topology::AsId cellular_as;
    std::vector<topology::AsId> extra_ases;
    Attachment home;
    Attachment work;
    Attachment cellular;
    double daily_rate = 0.0;
    double cross_as_probability = 0.0;
  };

  [[nodiscard]] UserProfile make_profile(stats::Rng& rng) const;
  /// A uniformly random host address in one of `as`'s prefixes; the same
  /// draws as SyntheticInternet::random_address_in(as, rng).
  [[nodiscard]] Attachment attach(topology::AsId as, stats::Rng& rng) const;

  const routing::SyntheticInternet& internet_;
  DeviceWorkloadConfig config_;
  // Stub and prefix-announcing tier-2 ASes grouped near each metro anchor.
  std::vector<std::vector<topology::AsId>> stubs_by_anchor_;
  std::vector<std::vector<topology::AsId>> tier2_by_anchor_;
};

}  // namespace lina::mobility
