// The observability off-switch regression: with the lina::obs registry
// enabled vs. disabled, every architecture's SessionStats must be
// bit-identical — instrumentation observes, it never feeds back. This is
// the obs analogue of the PR 1 empty-FailurePlan bit-identity contract.
// Runs under the `obs` ctest label.

#include <gtest/gtest.h>

#include <vector>

#include "../support/fixtures.hpp"
#include "lina/obs/metrics.hpp"
#include "lina/obs/registry.hpp"
#include "lina/sim/failure_plan.hpp"
#include "lina/sim/resolver_pool.hpp"
#include "lina/sim/session.hpp"
#include "lina/topology/geo.hpp"

namespace lina::sim {
namespace {

using lina::testing::shared_internet;
using topology::AsId;

const ForwardingFabric& fabric() {
  static const ForwardingFabric instance(shared_internet());
  return instance;
}

SessionConfig mobile_config() {
  const auto local =
      shared_internet().edge_ases_near(topology::metro_anchors()[0], 4);
  SessionConfig config;
  config.correspondent = shared_internet().edge_ases()[0];
  config.schedule = {{0.0, local[0]},
                     {2000.0, local[1]},
                     {4000.0, local[2]},
                     {6000.0, local[3]}};
  config.packet_interval_ms = 20.0;
  config.duration_ms = 8000.0;
  config.resolver_ttl_ms = 150.0;
  config.resolver_replicas =
      ResolverPool::metro_placement(shared_internet(), 6);
  return config;
}

void expect_identical(const SessionStats& a, const SessionStats& b) {
  EXPECT_EQ(a.packets_sent, b.packets_sent);
  EXPECT_EQ(a.packets_delivered, b.packets_delivered);
  EXPECT_EQ(a.packets_lost, b.packets_lost);
  EXPECT_EQ(a.control_messages, b.control_messages);
  EXPECT_EQ(a.control_retries, b.control_retries);
  EXPECT_EQ(a.packets_sent_during_failure, b.packets_sent_during_failure);
  EXPECT_EQ(a.packets_delivered_during_failure,
            b.packets_delivered_during_failure);
  // Bit-identical sample sets, not just close.
  EXPECT_EQ(a.delivery_delay_ms.sorted_samples(),
            b.delivery_delay_ms.sorted_samples());
  EXPECT_EQ(a.stretch.sorted_samples(), b.stretch.sorted_samples());
  EXPECT_EQ(a.outage_ms.sorted_samples(), b.outage_ms.sorted_samples());
  EXPECT_EQ(a.recovery_ms.sorted_samples(), b.recovery_ms.sorted_samples());
  EXPECT_EQ(a.stretch_degraded.sorted_samples(),
            b.stretch_degraded.sorted_samples());
}

TEST(ObsOffSwitchTest, SessionStatsBitIdenticalWithObservabilityOnVsOff) {
  const SessionConfig config = mobile_config();
  for (const auto arch :
       {SimArchitecture::kIndirection, SimArchitecture::kNameResolution,
        SimArchitecture::kNameBased,
        SimArchitecture::kReplicatedResolution}) {
    obs::Registry::instance().reset();
    obs::Registry::instance().enable(false);
    const SessionStats off = simulate_session(fabric(), arch, config);
    EXPECT_TRUE(obs::Registry::instance().snapshot().empty());

    SessionStats on;
    {
      obs::EnabledScope scope;
      on = simulate_session(fabric(), arch, config);
    }
    expect_identical(off, on);
    // And the instrumented run did actually record something — the
    // regression must not pass vacuously because metrics went dead.
    EXPECT_GE(obs::metric::session_runs().value(), 1u);
    EXPECT_EQ(obs::metric::session_packets_sent().value(),
              static_cast<std::uint64_t>(on.packets_sent));
    obs::Registry::instance().reset();
  }
}

TEST(ObsOffSwitchTest, FaultedSessionIsAlsoBitIdenticalOnVsOff) {
  // The failure paths carry extra instrumentation (control-drop and
  // failover counters); they must be observation-only too.
  SessionConfig config = mobile_config();
  FailurePlan plan(20140817u);
  // Cut the correspondent's first hop toward the second attachment; the
  // two endpoints are always distinct (a node is never its own next hop).
  plan.link_cut(config.correspondent,
                fabric()
                    .hop_toward(config.correspondent, config.schedule[1].as)
                    ->next,
                2000.0, 5000.0);
  plan.update_loss(0.4, 1000.0, 6000.0);
  config.failures = &plan;

  for (const auto arch :
       {SimArchitecture::kIndirection, SimArchitecture::kNameResolution,
        SimArchitecture::kReplicatedResolution}) {
    obs::Registry::instance().reset();
    obs::Registry::instance().enable(false);
    const SessionStats off = simulate_session(fabric(), arch, config);
    EXPECT_TRUE(obs::Registry::instance().snapshot().empty());

    SessionStats on;
    {
      obs::EnabledScope scope;
      on = simulate_session(fabric(), arch, config);
    }
    expect_identical(off, on);
    EXPECT_GT(obs::metric::failure_active_sends().value(), 0u);
    obs::Registry::instance().reset();
  }
}

TEST(ObsOffSwitchTest, ResolverCountsUpdatesAndFailsOverOnlyUnderFaults) {
  // Without faults every replica is live: each move is one resolver update
  // and no failover lookup is made (nor its instant recorded). With faults
  // in the plan, the device picks a live primary through the failover
  // lookup on every update.
  const SessionConfig config = mobile_config();
  const std::uint64_t moves = config.schedule.size() - 1;
  obs::Registry::instance().reset();
  {
    obs::EnabledScope scope;
    (void)simulate_session(fabric(), SimArchitecture::kReplicatedResolution,
                           config);
  }
  EXPECT_EQ(obs::metric::resolver_updates().value(), moves);
  EXPECT_EQ(obs::metric::resolver_failover_lookups().value(), 0u);

  SessionConfig faulted = config;
  FailurePlan plan;
  plan.resolver_crash(config.resolver_replicas.front(), 0.0, 1000.0);
  faulted.failures = &plan;
  obs::Registry::instance().reset();
  {
    obs::EnabledScope scope;
    (void)simulate_session(fabric(), SimArchitecture::kReplicatedResolution,
                           faulted);
  }
  EXPECT_EQ(obs::metric::resolver_updates().value(), moves);
  EXPECT_GE(obs::metric::resolver_failover_lookups().value(), moves);
  obs::Registry::instance().reset();
}

}  // namespace
}  // namespace lina::sim
