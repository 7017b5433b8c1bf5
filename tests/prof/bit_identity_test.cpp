// The profiling analogue of tests/obs/off_switch_test.cpp: with the span
// profiler enabled vs. disabled, every architecture's SessionStats must
// be bit-identical — spans observe, they never feed back. Checked serial
// and through the exec pool (worker chunk spans and adopted parents must
// not perturb results either). A session under a failure plan must also
// emit every control-plane instant event while staying bit-identical.
// Runs under the `prof` ctest label, plain, ASan+UBSan and TSan presets.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "../support/fixtures.hpp"
#include "lina/exec/parallel.hpp"
#include "lina/obs/registry.hpp"
#include "lina/prof/prof.hpp"
#include "lina/sim/failure_plan.hpp"
#include "lina/sim/resolver_pool.hpp"
#include "lina/sim/session.hpp"
#include "lina/topology/geo.hpp"

namespace lina::sim {
namespace {

using lina::testing::shared_internet;

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
  EXPECT_EQ(a.delivery_delay_ms.sorted_samples(),
            b.delivery_delay_ms.sorted_samples());
  EXPECT_EQ(a.stretch.sorted_samples(), b.stretch.sorted_samples());
  EXPECT_EQ(a.outage_ms.sorted_samples(), b.outage_ms.sorted_samples());
  EXPECT_EQ(a.recovery_ms.sorted_samples(), b.recovery_ms.sorted_samples());
  EXPECT_EQ(a.stretch_degraded.sorted_samples(),
            b.stretch_degraded.sorted_samples());
}

void reset_everything() {
  prof::Profiler::instance().enable(false);
  prof::Profiler::instance().reset();
  obs::Registry::instance().reset();
}

TEST(ProfBitIdentityTest, SessionStatsBitIdenticalProfilingOnVsOff) {
  const SessionConfig config = mobile_config();
  for (const auto arch :
       {SimArchitecture::kIndirection, SimArchitecture::kNameResolution,
        SimArchitecture::kNameBased,
        SimArchitecture::kReplicatedResolution}) {
    reset_everything();
    const SessionStats off = simulate_session(fabric(), arch, config);
    EXPECT_TRUE(prof::Profiler::instance().drain().empty());

    SessionStats on;
    {
      // Both switches on, as Harness --profile sets them: spans record
      // and carry live counter deltas.
      obs::EnabledScope obs_scope;
      prof::EnabledScope prof_scope;
      on = simulate_session(fabric(), arch, config);
    }
    expect_identical(off, on);
    // The profiled run must have actually recorded spans — the check
    // cannot pass vacuously because profiling went dead.
    EXPECT_FALSE(prof::Profiler::instance().drain().empty());
    reset_everything();
  }
}

TEST(ProfBitIdentityTest, PooledSessionsBitIdenticalProfilingOnVsOff) {
  // Sessions fanned out across the exec pool: worker-side chunk spans and
  // adopted parents are live, and results must still match the serial,
  // unprofiled baseline element for element.
  const SessionConfig config = mobile_config();
  constexpr std::size_t kSessions = 8;
  const auto arch = SimArchitecture::kReplicatedResolution;

  reset_everything();
  std::vector<SessionStats> off;
  off.reserve(kSessions);
  for (std::size_t i = 0; i < kSessions; ++i) {
    off.push_back(simulate_session(fabric(), arch, config));
  }

  std::vector<SessionStats> on;
  {
    obs::EnabledScope obs_scope;
    prof::EnabledScope prof_scope;
    PROF_SPAN("lina.test.pooled_sessions");
    on = exec::parallel_map(
        kSessions,
        [&](std::size_t) { return simulate_session(fabric(), arch, config); },
        4);
  }
  ASSERT_EQ(on.size(), off.size());
  for (std::size_t i = 0; i < kSessions; ++i) {
    expect_identical(off[i], on[i]);
  }
  EXPECT_FALSE(prof::Profiler::instance().drain().empty());
  reset_everything();
}

TEST(ProfBitIdentityTest, FaultedSessionEmitsInstantsAndStaysBitIdentical) {
  // A link cut on the correspondent's first hop (reconvergence), lossy
  // updates (control drops) and replicated resolution (failover lookups
  // on every move under faults).
  SessionConfig config = mobile_config();
  FailurePlan plan(20140817u);
  plan.link_cut(config.correspondent,
                fabric()
                    .hop_toward(config.correspondent, config.schedule[1].as)
                    ->next,
                2000.0, 5000.0);
  plan.update_loss(0.6, 1000.0, 7000.0);
  config.failures = &plan;
  const auto arch = SimArchitecture::kReplicatedResolution;

  reset_everything();
  // Fresh fabrics, so the detour routes (and their reconvergence
  // instants) are built inside each run rather than memoized before it.
  const SessionStats off =
      simulate_session(ForwardingFabric(shared_internet()), arch, config);
  EXPECT_TRUE(prof::Profiler::instance().drain().empty());

  SessionStats on;
  {
    obs::EnabledScope obs_scope;
    prof::EnabledScope prof_scope;
    on = simulate_session(ForwardingFabric(shared_internet()), arch, config);
  }
  expect_identical(off, on);

  std::set<std::string> names;
  for (const prof::SpanRecord& record : prof::Profiler::instance().drain()) {
    if (!record.is_instant()) continue;
    names.insert(record.name);
    EXPECT_NE(record.parent, 0u) << record.name;
    EXPECT_GE(record.sim_ms, 0.0) << record.name;
    EXPECT_LT(record.sim_ms, config.duration_ms) << record.name;
  }
  EXPECT_EQ(names, (std::set<std::string>{
                       "lina.sim.fabric.reconverge",
                       "lina.sim.failure.control_drop",
                       "lina.sim.resolver.failover_lookup",
                       "lina.sim.session.move"}));
  EXPECT_EQ(prof::Profiler::instance().dropped(), 0u);
  reset_everything();
}

}  // namespace
}  // namespace lina::sim
