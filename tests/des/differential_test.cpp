// Differential check of the two packet models on name-based routing:
// sim::simulate_session and des::PacketModel driven by run_serial must
// agree, session by session, on packets sent, packets delivered and the
// delivered-delay sum in integer microseconds (the DES digest's
// delay_us_total, against the same rounding over the sim's
// delivery_delay_ms samples). Failure-free, mapping cache off, global
// flooding and the §8 three-hop scope. Indirection and both resolution
// variants still disagree between the models (DESIGN.md §4i) and stay out
// of this test until the packet models are reconciled.
//
// The sessions are the packet_level_validation recipe (the 24 most mobile
// users, their first 72 trace hours at 1 simulated second per hour, 25 ms
// CBR from the first edge AS) on the shared test fixture: the
// 288-AS test Internet and its 80-user, 7-day workload instead of the
// paper-scale Internet and 372-user shard set, to keep ctest fast.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <vector>

#include "../support/fixtures.hpp"
#include "lina/des/engine.hpp"
#include "lina/trace/replay.hpp"

namespace lina::des {
namespace {

using lina::testing::shared_device_traces;
using lina::testing::shared_internet;

constexpr std::size_t kSessions = 24;
constexpr double kHours = 72.0;
constexpr double kIntervalMs = 25.0;

const sim::ForwardingFabric& fabric() {
  static const sim::ForwardingFabric instance(shared_internet());
  return instance;
}

/// The kSessions users with the most mobility events (user index breaks
/// ties), in that order.
std::vector<const mobility::DeviceTrace*> most_mobile() {
  const auto& traces = shared_device_traces();
  std::vector<std::size_t> order(traces.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return traces[a].events().size() >
                            traces[b].events().size();
                   });
  std::vector<const mobility::DeviceTrace*> out;
  for (std::size_t i = 0; i < std::min(kSessions, order.size()); ++i) {
    out.push_back(&traces[order[i]]);
  }
  return out;
}

struct Tally {
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t delay_us = 0;
};

Tally run_sim(const std::vector<sim::MobilityStep>& schedule,
              std::size_t scope) {
  sim::SessionConfig config;
  config.correspondent = shared_internet().edge_ases()[0];
  config.schedule = schedule;
  config.duration_ms = kHours * 1000.0;
  config.packet_interval_ms = kIntervalMs;
  config.update_scope_hops = scope;
  const sim::SessionStats stats = sim::simulate_session(
      fabric(), sim::SimArchitecture::kNameBased, config);
  Tally tally{stats.packets_sent, stats.packets_delivered, 0};
  for (const double delay_ms : stats.delivery_delay_ms.sorted_samples()) {
    tally.delay_us += static_cast<std::uint64_t>(delay_ms * 1000.0 + 0.5);
  }
  return tally;
}

Tally run_des(const std::vector<sim::MobilityStep>& schedule,
              std::size_t scope) {
  const sim::SessionConfig defaults;
  PacketModel model(fabric(), sim::SimArchitecture::kNameBased, nullptr,
                    defaults.packet_ttl_hops);
  SessionParams params;
  params.correspondent = shared_internet().edge_ases()[0];
  params.schedule = schedule;
  params.duration_ms = kHours * 1000.0;
  params.interval_ms = kIntervalMs;
  params.update_hop_ms = defaults.update_hop_ms;
  params.update_scope_hops = scope;
  model.add_session(params);
  const DeliveryDigest digest = run_serial(model).digest;
  return {digest.sent, digest.delivered, digest.delay_us_total};
}

void expect_models_agree(std::size_t scope) {
  const auto users = most_mobile();
  ASSERT_EQ(users.size(), kSessions);
  std::size_t moving = 0;
  for (std::size_t u = 0; u < users.size(); ++u) {
    const auto schedule =
        trace::session_schedule_from_trace(*users[u], kHours);
    if (schedule.size() > 1) ++moving;
    const Tally sim = run_sim(schedule, scope);
    const Tally des = run_des(schedule, scope);
    EXPECT_EQ(sim.sent, des.sent) << "session " << u;
    EXPECT_EQ(sim.delivered, des.delivered) << "session " << u;
    EXPECT_EQ(sim.delay_us, des.delay_us) << "session " << u;
  }
  // The comparison must exercise mobility, not only stationary sessions.
  EXPECT_GT(moving, kSessions / 2);
}

TEST(DesDifferentialTest, NameBasedGlobalFloodingMatchesSimulateSession) {
  expect_models_agree(SIZE_MAX);
}

TEST(DesDifferentialTest, NameBasedScopedFloodingMatchesSimulateSession) {
  expect_models_agree(3);
}

}  // namespace
}  // namespace lina::des
