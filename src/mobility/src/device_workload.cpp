#include "lina/mobility/device_workload.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "lina/exec/parallel.hpp"
#include "lina/prof/prof.hpp"
#include "lina/stats/distributions.hpp"

namespace lina::mobility {

using routing::SyntheticInternet;
using topology::AsId;
using topology::AsTier;

namespace {

// Location kinds drive both transition-target choice and dwell time.
enum class Kind : std::uint8_t { kHome, kWork, kCellular, kOther };

}  // namespace

DeviceWorkloadGenerator::DeviceWorkloadGenerator(
    const SyntheticInternet& internet, DeviceWorkloadConfig config)
    : internet_(internet), config_(config) {
  const auto anchors = topology::metro_anchors();
  stubs_by_anchor_.resize(anchors.size());
  tier2_by_anchor_.resize(anchors.size());
  for (std::size_t a = 0; a < anchors.size(); ++a) {
    for (const AsId as : internet.edge_ases_near(anchors[a], 48)) {
      if (internet.graph().tier(as) == AsTier::kStub) {
        if (stubs_by_anchor_[a].size() < 24) stubs_by_anchor_[a].push_back(as);
      } else if (internet.graph().tier(as) == AsTier::kTier2) {
        if (tier2_by_anchor_[a].size() < 8) tier2_by_anchor_[a].push_back(as);
      }
    }
    if (stubs_by_anchor_[a].size() < 2 || tier2_by_anchor_[a].empty())
      throw std::logic_error(
          "DeviceWorkloadGenerator: topology too sparse near an anchor");
  }
}

DeviceWorkloadGenerator::UserProfile DeviceWorkloadGenerator::make_profile(
    stats::Rng& rng) const {
  const auto pick_anchor = [&]() -> std::size_t {
    const double u = rng.uniform();
    if (u < config_.us_share) {
      constexpr std::size_t kUs[] = {0, 1, 2, 3};
      return kUs[rng.index(4)];
    }
    if (u < config_.us_share + config_.eu_share) {
      constexpr std::size_t kEu[] = {5, 6};
      return kEu[rng.index(2)];
    }
    return 4;  // Sao Paulo
  };

  const std::size_t anchor = pick_anchor();
  const auto& stubs = stubs_by_anchor_[anchor];
  const auto& tier2s = tier2_by_anchor_[anchor];

  UserProfile profile;
  profile.home_as = stubs[rng.index(stubs.size())];
  if (rng.chance(config_.home_single_homed_preference)) {
    // Residential ISPs typically funnel through a single transit provider.
    for (int attempts = 0; attempts < 24; ++attempts) {
      if (internet_.graph().degree(profile.home_as) == 1) break;
      profile.home_as = stubs[rng.index(stubs.size())];
    }
  }
  profile.work_as = profile.home_as;
  if (rng.chance(config_.work_probability)) {
    // A different stub near the same anchor, preferring one that shares a
    // transit provider with home (same-metro infrastructure).
    const auto shares_provider = [&](AsId a, AsId b) {
      for (const auto& la : internet_.graph().links(a)) {
        if (la.rel != topology::AsRelationship::kProvider) continue;
        for (const auto& lb : internet_.graph().links(b)) {
          if (lb.rel == topology::AsRelationship::kProvider &&
              la.neighbor == lb.neighbor) {
            return true;
          }
        }
      }
      return false;
    };
    const bool want_shared = rng.chance(config_.work_shares_home_upstream);
    for (int attempts = 0; attempts < 24; ++attempts) {
      const AsId candidate = stubs[rng.index(stubs.size())];
      if (candidate == profile.home_as) continue;
      profile.work_as = candidate;
      if (!want_shared || shares_provider(candidate, profile.home_as)) break;
    }
  }
  // The carrier usually shares the home ISP's upstream (metro transit).
  profile.cellular_as = tier2s[rng.index(tier2s.size())];
  if (rng.chance(config_.cellular_shares_home_upstream)) {
    std::vector<AsId> home_providers;
    for (const auto& link : internet_.graph().links(profile.home_as)) {
      if (link.rel == topology::AsRelationship::kProvider &&
          !internet_.prefixes_of(link.neighbor).empty()) {
        home_providers.push_back(link.neighbor);
      }
    }
    if (!home_providers.empty()) {
      profile.cellular_as = home_providers[rng.index(home_providers.size())];
    }
  }
  const auto shares_provider_with_home = [&](AsId candidate) {
    for (const auto& la : internet_.graph().links(candidate)) {
      if (la.rel != topology::AsRelationship::kProvider) continue;
      for (const auto& lb : internet_.graph().links(profile.home_as)) {
        if (lb.rel == topology::AsRelationship::kProvider &&
            la.neighbor == lb.neighbor) {
          return true;
        }
      }
    }
    return false;
  };
  const std::size_t extras =
      config_.max_extra_locations == 0
          ? 0
          : rng.index(config_.max_extra_locations + 1);
  for (std::size_t i = 0; i < extras; ++i) {
    // Extra locations are usually regional — often on the same metro
    // transit as home — and occasionally anywhere (travel).
    const std::size_t a = rng.chance(0.8) ? anchor : pick_anchor();
    const auto& pool = stubs_by_anchor_[a];
    AsId choice = pool[rng.index(pool.size())];
    if (a == anchor && rng.chance(config_.extra_shares_home_upstream)) {
      for (int attempts = 0; attempts < 16; ++attempts) {
        if (shares_provider_with_home(choice)) break;
        choice = pool[rng.index(pool.size())];
      }
    }
    profile.extra_ases.push_back(choice);
  }

  profile.home = attach(profile.home_as, rng);
  profile.work = attach(profile.work_as, rng);
  profile.cellular = attach(profile.cellular_as, rng);

  const stats::LogNormal rate_dist(config_.median_daily_transitions,
                                   config_.transition_sigma);
  profile.daily_rate = std::clamp(rate_dist.sample(rng),
                                  config_.min_daily_rate,
                                  config_.max_daily_rate);
  profile.cross_as_probability =
      std::clamp(rng.normal(config_.cross_as_probability_mean,
                            config_.cross_as_probability_stddev),
                 0.05, 0.9);
  return profile;
}

DeviceWorkloadGenerator::Attachment DeviceWorkloadGenerator::attach(
    AsId as, stats::Rng& rng) const {
  const auto prefixes = internet_.prefixes_of(as);
  if (prefixes.empty())
    throw std::invalid_argument(
        "DeviceWorkloadGenerator: AS announces no prefix");
  const net::Prefix& prefix = prefixes[rng.index(prefixes.size())];
  return {SyntheticInternet::random_address_in(prefix, rng), prefix};
}

DeviceTrace DeviceWorkloadGenerator::generate_user(
    std::uint32_t user_id) const {
  stats::Rng rng(config_.seed, "device-user-" + std::to_string(user_id));
  UserProfile profile = make_profile(rng);

  struct Occupant {
    AsId as;
    Attachment at;
    Kind kind;
  };

  const auto dwell_weight = [this](Kind kind) {
    switch (kind) {
      case Kind::kHome:
        return config_.home_weight;
      case Kind::kWork:
        return config_.work_weight;
      case Kind::kCellular:
        return config_.cellular_weight;
      case Kind::kOther:
        return config_.other_weight;
    }
    return 1.0;
  };

  // Pick the next occupant given the current one.
  const auto next_occupant = [&](const Occupant& current) -> Occupant {
    if (!rng.chance(profile.cross_as_probability)) {
      // Within-AS connectivity event. At home/work the DHCP lease usually
      // survives (same address, no mobility event); with
      // lease_change_probability it changes, and the stable address is
      // updated. Cellular reattachment always re-draws from the carrier
      // pool (NAT/pool churn).
      if (current.kind == Kind::kHome || current.kind == Kind::kWork) {
        if (!rng.chance(config_.lease_change_probability)) return current;
        const Attachment at = attach(current.as, rng);
        if (current.kind == Kind::kHome) profile.home = at;
        if (current.kind == Kind::kWork) profile.work = at;
        return {current.as, at, current.kind};
      }
      if (current.kind == Kind::kCellular) {
        profile.cellular = attach(current.as, rng);
        return {current.as, profile.cellular, Kind::kCellular};
      }
      return {current.as, attach(current.as, rng), Kind::kOther};
    }
    // Cross-AS move: weighted choice among the other locations.
    struct Target {
      Kind kind;
      double weight;
    };
    std::vector<Target> targets;
    if (current.kind != Kind::kHome) targets.push_back({Kind::kHome, 2.5});
    if (current.kind != Kind::kWork && profile.work_as != profile.home_as)
      targets.push_back({Kind::kWork, 2.0});
    if (current.kind != Kind::kCellular)
      targets.push_back({Kind::kCellular, 3.0});
    if (!profile.extra_ases.empty() && current.kind != Kind::kOther)
      targets.push_back({Kind::kOther, 0.5});
    if (targets.empty()) targets.push_back({Kind::kCellular, 1.0});

    std::vector<double> weights;
    weights.reserve(targets.size());
    for (const Target& t : targets) weights.push_back(t.weight);
    const Kind kind = targets[stats::weighted_index(rng, weights)].kind;
    switch (kind) {
      case Kind::kHome:
        return {profile.home_as, profile.home, Kind::kHome};
      case Kind::kWork:
        return {profile.work_as, profile.work, Kind::kWork};
      case Kind::kCellular:
        // Carrier-assigned address is sticky across reconnects.
        return {profile.cellular_as, profile.cellular, Kind::kCellular};
      case Kind::kOther: {
        const AsId as =
            profile.extra_ases[rng.index(profile.extra_ases.size())];
        return {as, attach(as, rng), Kind::kOther};
      }
    }
    throw std::logic_error("unreachable");
  };

  DeviceTrace trace(user_id, config_.days);
  Occupant current{profile.home_as, profile.home, Kind::kHome};
  DeviceVisit pending{0.0, 0.0, current.at.address, current.at.prefix,
                      current.as, current.kind == Kind::kCellular};

  double clock = 0.0;
  for (std::size_t day = 0; day < config_.days; ++day) {
    const std::size_t transitions = rng.poisson(profile.daily_rate);

    // Build the day's occupant sequence, then split the 24 hours among
    // occupants proportional to dwell weight with multiplicative jitter.
    std::vector<Occupant> occupants{current};
    for (std::size_t t = 0; t < transitions; ++t) {
      occupants.push_back(next_occupant(occupants.back()));
    }
    std::vector<double> shares(occupants.size());
    double total = 0.0;
    for (std::size_t i = 0; i < occupants.size(); ++i) {
      shares[i] = dwell_weight(occupants[i].kind) *
                  std::max(rng.uniform(0.3, 1.7), 0.05);
      total += shares[i];
    }

    for (std::size_t i = 0; i < occupants.size(); ++i) {
      const double duration = 24.0 * shares[i] / total;
      if (i == 0) {
        // Continuation of the pending visit across the day boundary.
        pending.duration_hours += duration;
      } else {
        trace.append(pending);
        clock = pending.start_hour + pending.duration_hours;
        pending = DeviceVisit{clock, duration, occupants[i].at.address,
                              occupants[i].at.prefix, occupants[i].as,
                              occupants[i].kind == Kind::kCellular};
      }
    }
    current = occupants.back();
  }
  trace.append(pending);
  return trace;
}

std::vector<DeviceTrace> DeviceWorkloadGenerator::generate() const {
  PROF_SPAN("lina.mobility.workload_generate");
  // Each user already draws from an independent, id-labelled RNG stream,
  // so the population fans out across the lina::exec pool and comes back
  // in user order — bit-identical to the serial loop at any thread count
  // (pinned by tests/exec/determinism_test.cpp).
  return exec::parallel_map(config_.user_count, [this](std::size_t u) {
    return generate_user(static_cast<std::uint32_t>(u));
  });
}

}  // namespace lina::mobility
