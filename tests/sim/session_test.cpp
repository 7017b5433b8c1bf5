#include "lina/sim/session.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "../support/fixtures.hpp"

namespace lina::sim {
namespace {

using lina::testing::shared_internet;
using topology::AsId;

const ForwardingFabric& fabric() {
  static const ForwardingFabric instance(shared_internet());
  return instance;
}

AsId edge(std::size_t i) { return shared_internet().edge_ases()[i]; }

SessionConfig stationary_config() {
  SessionConfig config;
  config.correspondent = edge(0);
  config.schedule = {{0.0, edge(25)}};
  config.packet_interval_ms = 50.0;
  config.duration_ms = 2000.0;
  return config;
}

SessionConfig mobile_config() {
  // Metro-local roaming (the measured common case): the device hops among
  // ASes near one anchor every two seconds while a remote correspondent
  // streams packets.
  static const std::vector<AsId> local =
      shared_internet().edge_ases_near(topology::metro_anchors()[0], 4);
  SessionConfig config;
  config.correspondent = edge(0);
  config.schedule = {{0.0, local[0]},
                     {2000.0, local[1]},
                     {4000.0, local[2]},
                     {6000.0, local[3]}};
  config.packet_interval_ms = 20.0;
  config.duration_ms = 8000.0;
  // Re-resolve well within the mobility timescale, as a deployed resolver
  // client would (low TTLs for mobile endpoints).
  config.resolver_ttl_ms = 150.0;
  return config;
}

constexpr SimArchitecture kAll[] = {SimArchitecture::kIndirection,
                                    SimArchitecture::kNameResolution,
                                    SimArchitecture::kNameBased};

TEST(SimSessionTest, NamesAreDistinct) {
  EXPECT_NE(sim_architecture_name(SimArchitecture::kIndirection),
            sim_architecture_name(SimArchitecture::kNameBased));
}

TEST(SimSessionTest, ValidatesConfig) {
  SessionConfig config = stationary_config();
  config.schedule.clear();
  for (const auto arch : kAll) {
    EXPECT_THROW((void)simulate_session(fabric(), arch, config),
                 std::invalid_argument);
  }
  config = stationary_config();
  config.schedule.front().time_ms = 5.0;
  EXPECT_THROW((void)simulate_session(fabric(), kAll[0], config),
               std::invalid_argument);
  config = stationary_config();
  config.packet_interval_ms = 0.0;
  EXPECT_THROW((void)simulate_session(fabric(), kAll[0], config),
               std::invalid_argument);
  config = stationary_config();
  config.schedule.push_back({0.0, edge(1)});  // non-increasing times
  EXPECT_THROW((void)simulate_session(fabric(), kAll[0], config),
               std::invalid_argument);
}

// NaN first: it passed the old `<= 0.0` checks, so a run that accepts it
// stops at the ASSERT before an infinite duration could loop forever.
constexpr double kNonFinite[] = {std::numeric_limits<double>::quiet_NaN(),
                                 std::numeric_limits<double>::infinity(),
                                 -std::numeric_limits<double>::infinity()};

/// The std::invalid_argument message `config` is rejected with; empty if
/// the session runs.
std::string rejection(SimArchitecture arch, const SessionConfig& config) {
  try {
    (void)simulate_session(fabric(), arch, config);
  } catch (const std::invalid_argument& error) {
    return error.what();
  }
  return "";
}

TEST(SimSessionTest, RejectsNonFinitePacketInterval) {
  for (const double bad : kNonFinite) {
    SessionConfig config = stationary_config();
    config.packet_interval_ms = bad;
    ASSERT_NE(rejection(SimArchitecture::kNameBased, config)
                  .find("packet_interval_ms"),
              std::string::npos)
        << bad;
  }
}

TEST(SimSessionTest, RejectsNonFiniteDuration) {
  for (const double bad : kNonFinite) {
    SessionConfig config = stationary_config();
    config.duration_ms = bad;
    ASSERT_NE(
        rejection(SimArchitecture::kNameBased, config).find("duration_ms"),
        std::string::npos)
        << bad;
  }
}

TEST(SimSessionTest, RejectsADurationThePacketClockNeverReaches) {
  // 1 ms steps stop advancing at 2^53 ms (2^53 + 1 rounds back), far
  // short of 2e17 ms: a send loop would never end.
  SessionConfig config = stationary_config();
  config.packet_interval_ms = 1.0;
  config.duration_ms = 2e17;
  for (const SimArchitecture arch :
       {SimArchitecture::kIndirection, SimArchitecture::kNameBased}) {
    ASSERT_NE(rejection(arch, config).find("stops advancing"),
              std::string::npos)
        << static_cast<int>(arch);
  }
}

TEST(SimSessionTest, RejectsNonFiniteUpdateHop) {
  for (const double bad : kNonFinite) {
    SessionConfig config = mobile_config();
    config.update_hop_ms = bad;
    ASSERT_NE(
        rejection(SimArchitecture::kNameBased, config).find("update_hop_ms"),
        std::string::npos)
        << bad;
  }
}

TEST(SimSessionTest, RejectsNonFiniteResolverTtl) {
  for (const double bad : kNonFinite) {
    SessionConfig config = mobile_config();
    config.resolver_ttl_ms = bad;
    ASSERT_NE(rejection(SimArchitecture::kNameResolution, config)
                  .find("resolver_ttl_ms"),
              std::string::npos)
        << bad;
  }
}

TEST(SimSessionTest, RejectsFailurePlanOutsideGraph) {
  const AsId outside =
      static_cast<AsId>(shared_internet().graph().as_count());
  FailurePlan plan;
  plan.link_cut(edge(0), outside, 100.0, 200.0);
  SessionConfig config = stationary_config();
  config.failures = &plan;
  for (const auto arch : kAll) {
    EXPECT_THROW((void)simulate_session(fabric(), arch, config),
                 std::out_of_range);
  }
}

// The rules the packet front-ends share (session.hpp), at their
// boundaries.

TEST(SessionRulesTest, LocationAtIsTheLastStepAtOrBefore) {
  const std::vector<MobilityStep> schedule = {
      {0.0, edge(10)}, {1000.0, edge(20)}, {3000.0, edge(30)}};
  EXPECT_EQ(location_at(schedule, 0.0), edge(10));
  EXPECT_EQ(location_at(schedule, std::nextafter(1000.0, 0.0)), edge(10));
  EXPECT_EQ(location_at(schedule, 1000.0), edge(20));  // a move exactly at t
  EXPECT_EQ(location_at(schedule, 2999.0), edge(20));  // later step ignored
  EXPECT_EQ(location_at(schedule, 3000.0), edge(30));
  EXPECT_EQ(location_at(schedule, 1e9), edge(30));
}

TEST(SessionRulesTest, WavefrontArrivingExactlyAtTIsBelieved) {
  const AsId router = edge(0);
  const std::vector<MobilityStep> schedule = {{0.0, edge(10)},
                                              {1000.0, edge(20)}};
  const std::size_t hops = fabric().physical_hops(router, edge(20));
  ASSERT_GT(hops, 0u);
  const double arrival = 1000.0 + wavefront_lag_ms(hops, 5.0);
  EXPECT_EQ(wavefront_lag_ms(hops, 5.0), 5.0 * static_cast<double>(hops));
  const auto belief = [&](double t) {
    return wavefront_belief(fabric(), schedule, router, t, 5.0, SIZE_MAX);
  };
  EXPECT_EQ(belief(arrival), edge(20));
  EXPECT_EQ(belief(std::nextafter(arrival, 0.0)), edge(10));
  // The moved-to router itself learns at the move instant.
  EXPECT_EQ(wavefront_belief(fabric(), schedule, edge(20), 1000.0, 5.0,
                             SIZE_MAX),
            edge(20));
}

TEST(SessionRulesTest, WavefrontIgnoresStepsAfterT) {
  // A step at the router itself (zero hops) is not believed before it
  // happens, and an older step whose flood has arrived is.
  const AsId router = edge(20);
  const std::vector<MobilityStep> schedule = {
      {0.0, edge(10)}, {100.0, edge(15)}, {1000.0, router}};
  const double t = std::nextafter(1000.0, 0.0);
  const std::size_t hops = fabric().physical_hops(router, edge(15));
  ASSERT_LE(100.0 + wavefront_lag_ms(hops, 1.0), t);
  EXPECT_EQ(wavefront_belief(fabric(), schedule, router, t, 1.0, SIZE_MAX),
            edge(15));
}

TEST(SessionRulesTest, NewestKnownStepSkipsNewsThatNeverArrives) {
  const std::vector<MobilityStep> schedule = {
      {0.0, edge(10)}, {1000.0, edge(20)}, {2000.0, edge(30)}};
  std::vector<AsId> asked;
  const auto lag = [&](const MobilityStep& step) -> std::optional<double> {
    asked.push_back(step.as);
    if (step.as == edge(30)) return std::nullopt;  // never arrives
    return 50.0;
  };
  EXPECT_EQ(newest_known_step(schedule, 1e9, 0.0, lag), edge(20));
  EXPECT_EQ(asked, (std::vector<AsId>{edge(30), edge(20)}));
  // Only steps at or before t are asked, newest first.
  asked.clear();
  EXPECT_EQ(newest_known_step(schedule, 1049.0, 0.0, lag), edge(10));
  EXPECT_EQ(asked, (std::vector<AsId>{edge(20)}));
  asked.clear();
  EXPECT_EQ(newest_known_step(schedule, 1049.0, 125.0, lag), edge(10));
  EXPECT_TRUE(asked.empty());
}

TEST(SessionRulesTest, RouterBeyondScopeKeepsTheInitialAttachment) {
  // Scope 0: a move is announced only at its own AS.
  const std::vector<MobilityStep> schedule = {
      {0.0, edge(10)}, {1000.0, edge(20)}, {2000.0, edge(30)}};
  ASSERT_GT(fabric().physical_hops(edge(0), edge(20)), 0u);
  ASSERT_GT(fabric().physical_hops(edge(0), edge(30)), 0u);
  ASSERT_GT(fabric().physical_hops(edge(20), edge(30)), 0u);
  EXPECT_EQ(wavefront_belief(fabric(), schedule, edge(0), 1e9, 5.0, 0),
            edge(10));
  // A router inside an older step's scope keeps that step once a newer
  // move is announced out of its reach.
  EXPECT_EQ(wavefront_belief(fabric(), schedule, edge(20), 1e9, 5.0, 0),
            edge(20));
  EXPECT_EQ(wavefront_belief(fabric(), schedule, edge(30), 2000.0, 5.0, 0),
            edge(30));
}

TEST(SessionRulesTest, StartOffsetShiftsEveryArrival) {
  // The DES places a schedule at start_ms; times stay relative to it.
  constexpr double kStart = 125.0;
  const AsId router = edge(0);
  const std::vector<MobilityStep> schedule = {{0.0, edge(10)},
                                              {1000.0, edge(20)}};
  const std::size_t hops = fabric().physical_hops(router, edge(20));
  const double arrival = kStart + 1000.0 + wavefront_lag_ms(hops, 5.0);
  const auto belief = [&](double t) {
    return wavefront_belief(fabric(), schedule, router, t, 5.0, SIZE_MAX,
                            kStart);
  };
  EXPECT_EQ(belief(arrival), edge(20));
  EXPECT_EQ(belief(std::nextafter(arrival, 0.0)), edge(10));
  // At the moved-to router the move lands at start + 1000, not at 1000.
  EXPECT_EQ(wavefront_belief(fabric(), schedule, edge(20), 1000.0, 5.0,
                             SIZE_MAX, kStart),
            edge(10));
  EXPECT_EQ(wavefront_belief(fabric(), schedule, edge(20), kStart + 1000.0,
                             5.0, SIZE_MAX, kStart),
            edge(20));
}

TEST(SimSessionTest, StationaryDeviceFullDelivery) {
  for (const auto arch : kAll) {
    const SessionStats stats =
        simulate_session(fabric(), arch, stationary_config());
    EXPECT_EQ(stats.packets_sent, 40u);
    EXPECT_EQ(stats.packets_delivered, stats.packets_sent)
        << sim_architecture_name(arch);
    EXPECT_EQ(stats.packets_lost, 0u);
    EXPECT_TRUE(stats.outage_ms.empty());
  }
}

TEST(SimSessionTest, StationaryDirectArchitecturesHaveUnitStretch) {
  for (const auto arch :
       {SimArchitecture::kNameResolution, SimArchitecture::kNameBased}) {
    const SessionStats stats =
        simulate_session(fabric(), arch, stationary_config());
    EXPECT_NEAR(stats.stretch.quantile(0.5), 1.0, 1e-6)
        << sim_architecture_name(arch);
  }
}

TEST(SimSessionTest, IndirectionPaysTriangleStretch) {
  // Home far from both endpoints: the detour must show as stretch > 1.
  SessionConfig config = stationary_config();
  config.home_as = edge(100);  // somewhere else entirely
  const SessionStats via_far_home = simulate_session(
      fabric(), SimArchitecture::kIndirection, config);
  EXPECT_EQ(via_far_home.delivery_ratio(), 1.0);
  EXPECT_GT(via_far_home.stretch.quantile(0.5), 1.0);

  // Home co-located with the device: no detour on the second leg.
  config.home_as = config.schedule.front().as;
  const SessionStats via_device_home = simulate_session(
      fabric(), SimArchitecture::kIndirection, config);
  EXPECT_NEAR(via_device_home.stretch.quantile(0.5), 1.0, 1e-6);
}

TEST(SimSessionTest, MobilityCausesBoundedLoss) {
  for (const auto arch : kAll) {
    const SessionStats stats =
        simulate_session(fabric(), arch, mobile_config());
    EXPECT_EQ(stats.packets_sent, 400u);
    // Some packets are in flight to the old location at each of the three
    // moves, but the architectures must re-converge.
    EXPECT_GT(stats.delivery_ratio(), 0.8) << sim_architecture_name(arch);
    EXPECT_LT(stats.delivery_ratio(), 1.0) << sim_architecture_name(arch);
    EXPECT_FALSE(stats.outage_ms.empty());
  }
}

TEST(SimSessionTest, ControlMessageAccounting) {
  // 3 moves: indirection sends one registration per move; resolution sends
  // one registration per move plus periodic re-resolutions; name-based
  // floods every router per move.
  const auto moves = mobile_config().schedule.size() - 1;
  const SessionStats indirection = simulate_session(
      fabric(), SimArchitecture::kIndirection, mobile_config());
  EXPECT_EQ(indirection.control_messages, moves);

  const SessionStats resolution = simulate_session(
      fabric(), SimArchitecture::kNameResolution, mobile_config());
  EXPECT_GT(resolution.control_messages, moves);

  const SessionStats name_based = simulate_session(
      fabric(), SimArchitecture::kNameBased, mobile_config());
  EXPECT_EQ(name_based.control_messages,
            moves * shared_internet().graph().as_count());
}

TEST(SimSessionTest, FasterUpdatesShortenNameBasedOutage) {
  SessionConfig slow = mobile_config();
  slow.update_hop_ms = 50.0;
  SessionConfig fast = mobile_config();
  fast.update_hop_ms = 1.0;
  const SessionStats slow_stats =
      simulate_session(fabric(), SimArchitecture::kNameBased, slow);
  const SessionStats fast_stats =
      simulate_session(fabric(), SimArchitecture::kNameBased, fast);
  ASSERT_FALSE(slow_stats.outage_ms.empty());
  ASSERT_FALSE(fast_stats.outage_ms.empty());
  EXPECT_LE(fast_stats.outage_ms.quantile(0.5),
            slow_stats.outage_ms.quantile(0.5));
  EXPECT_GE(fast_stats.delivery_ratio(), slow_stats.delivery_ratio());
}

TEST(SimSessionTest, ShorterTtlImprovesResolutionFreshness) {
  SessionConfig stale = mobile_config();
  stale.resolver_ttl_ms = 4000.0;  // never re-resolves within the session
  SessionConfig fresh = mobile_config();
  fresh.resolver_ttl_ms = 100.0;
  const SessionStats stale_stats = simulate_session(
      fabric(), SimArchitecture::kNameResolution, stale);
  const SessionStats fresh_stats = simulate_session(
      fabric(), SimArchitecture::kNameResolution, fresh);
  EXPECT_GT(fresh_stats.delivery_ratio(), stale_stats.delivery_ratio());
  EXPECT_GT(fresh_stats.control_messages, stale_stats.control_messages);
}

TEST(SimSessionTest, NameBasedStretchStaysNearOneAfterConvergence) {
  const SessionStats stats =
      simulate_session(fabric(), SimArchitecture::kNameBased,
                       mobile_config());
  // Median packet travels a converged shortest policy path.
  EXPECT_NEAR(stats.stretch.quantile(0.5), 1.0, 0.05);
}

TEST(SimSessionTest, DeterministicAcrossRuns) {
  for (const auto arch : kAll) {
    const SessionStats a = simulate_session(fabric(), arch, mobile_config());
    const SessionStats b = simulate_session(fabric(), arch, mobile_config());
    EXPECT_EQ(a.packets_delivered, b.packets_delivered);
    EXPECT_EQ(a.control_messages, b.control_messages);
  }
}

}  // namespace
}  // namespace lina::sim
