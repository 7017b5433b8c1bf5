// Serial-vs-parallel bit-identity: the lina::exec contract (DESIGN.md §4c)
// is that every parallelized pipeline returns byte-for-byte the same result
// at any thread count. These tests pin that for the workload generator, the
// session simulator (all four architectures), the indirection-stretch
// pipeline, and the device, content and multihomed update-cost
// evaluators, check the fabric's memoized degraded graph builds exactly
// once per (plan, epoch) key, and check that racing first touches of a
// fresh fabric's route and BFS rows read what a serial fabric reads.

#include <gtest/gtest.h>

#include <cstddef>
#include <latch>
#include <optional>
#include <string_view>
#include <thread>
#include <vector>

#include "../support/fixtures.hpp"
#include "lina/core/latency_model.hpp"
#include "lina/core/update_cost.hpp"
#include "lina/exec/parallel.hpp"
#include "lina/exec/thread_pool.hpp"
#include "lina/mobility/device_multihoming.hpp"
#include "lina/mobility/device_workload.hpp"
#include "lina/obs/metrics.hpp"
#include "lina/obs/registry.hpp"
#include "lina/sim/fabric.hpp"
#include "lina/sim/failure_plan.hpp"
#include "lina/sim/session.hpp"
#include "lina/stats/rng.hpp"

namespace lina {
namespace {

using lina::testing::shared_content_catalog;
using lina::testing::shared_device_traces;
using lina::testing::shared_internet;
using lina::testing::ThreadCountGuard;
using topology::AsId;

void expect_same_cdf(const stats::EmpiricalCdf& a,
                     const stats::EmpiricalCdf& b, const char* what) {
  ASSERT_EQ(a.sorted_samples().size(), b.sorted_samples().size()) << what;
  for (std::size_t i = 0; i < a.sorted_samples().size(); ++i) {
    // Exact double equality on purpose: the contract is bit-identity,
    // not tolerance.
    ASSERT_EQ(a.sorted_samples()[i], b.sorted_samples()[i])
        << what << " sample " << i;
  }
}

void expect_same_traces(const std::vector<mobility::DeviceTrace>& a,
                        const std::vector<mobility::DeviceTrace>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t u = 0; u < a.size(); ++u) {
    ASSERT_EQ(a[u].user_id(), b[u].user_id());
    const auto va = a[u].visits();
    const auto vb = b[u].visits();
    ASSERT_EQ(va.size(), vb.size()) << "user " << u;
    for (std::size_t i = 0; i < va.size(); ++i) {
      ASSERT_EQ(va[i].start_hour, vb[i].start_hour) << u << ":" << i;
      ASSERT_EQ(va[i].duration_hours, vb[i].duration_hours) << u << ":" << i;
      ASSERT_EQ(va[i].address.value(), vb[i].address.value()) << u << ":" << i;
      ASSERT_EQ(va[i].as, vb[i].as) << u << ":" << i;
      ASSERT_EQ(va[i].cellular, vb[i].cellular) << u << ":" << i;
    }
  }
}

TEST(WorkloadDeterminismTest, BitIdenticalAtOneTwoAndEightThreads) {
  ThreadCountGuard guard;
  mobility::DeviceWorkloadConfig config;
  config.user_count = 40;
  config.days = 3;
  const mobility::DeviceWorkloadGenerator generator(shared_internet(),
                                                    config);
  exec::set_default_threads(1);
  const auto serial = generator.generate();
  for (const std::size_t threads : {2u, 8u}) {
    exec::set_default_threads(threads);
    expect_same_traces(serial, generator.generate());
  }
}

sim::SessionConfig determinism_session_config() {
  const auto& edges = shared_internet().edge_ases();
  sim::SessionConfig config;
  config.correspondent = edges[0];
  config.schedule = {{0.0, edges[5]}, {1500.0, edges[6]}};
  config.packet_interval_ms = 50.0;
  config.duration_ms = 4000.0;
  config.resolver_ttl_ms = 200.0;
  config.resolver_as = edges[40];
  config.resolver_replicas = {edges[40], edges[41], edges[42]};
  return config;
}

void expect_same_session_stats(const sim::SessionStats& a,
                               const sim::SessionStats& b) {
  EXPECT_EQ(a.packets_sent, b.packets_sent);
  EXPECT_EQ(a.packets_delivered, b.packets_delivered);
  EXPECT_EQ(a.packets_lost, b.packets_lost);
  EXPECT_EQ(a.control_messages, b.control_messages);
  EXPECT_EQ(a.control_retries, b.control_retries);
  expect_same_cdf(a.delivery_delay_ms, b.delivery_delay_ms, "delay");
  expect_same_cdf(a.stretch, b.stretch, "stretch");
  expect_same_cdf(a.outage_ms, b.outage_ms, "outage");
  expect_same_cdf(a.recovery_ms, b.recovery_ms, "recovery");
}

TEST(SessionDeterminismTest, AllArchitecturesBitIdenticalSerialVsParallel) {
  ThreadCountGuard guard;
  const sim::ForwardingFabric fabric(shared_internet());
  const std::vector<sim::SimArchitecture> architectures{
      sim::SimArchitecture::kIndirection,
      sim::SimArchitecture::kNameResolution,
      sim::SimArchitecture::kNameBased,
      sim::SimArchitecture::kReplicatedResolution,
  };
  const auto config = determinism_session_config();

  exec::set_default_threads(1);
  std::vector<sim::SessionStats> serial;
  for (const auto arch : architectures) {
    serial.push_back(sim::simulate_session(fabric, arch, config));
  }
  for (const std::size_t threads : {2u, 8u}) {
    exec::set_default_threads(threads);
    // A fresh fabric per thread count: its memoized route tables must
    // fill to the same values no matter how many workers race to build
    // them.
    const sim::ForwardingFabric parallel_fabric(shared_internet());
    const auto parallel = exec::parallel_map(
        architectures.size(), [&](std::size_t i) {
          return sim::simulate_session(parallel_fabric, architectures[i],
                                       config);
        });
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      expect_same_session_stats(serial[i], parallel[i]);
    }
  }
}

TEST(StretchDeterminismTest, PipelineBitIdenticalAcrossThreadCounts) {
  ThreadCountGuard guard;
  const core::LatencyModel model(shared_internet());
  const auto run = [&](std::size_t threads) {
    exec::set_default_threads(threads);
    stats::Rng rng(99);  // fresh seed per run: coverage coins must match
    return core::evaluate_indirection_stretch(shared_device_traces(), model,
                                              0.3, rng);
  };
  const auto serial = run(1);
  EXPECT_GT(serial.pairs_total, 0u);
  for (const std::size_t threads : {2u, 8u}) {
    const auto parallel = run(threads);
    EXPECT_EQ(parallel.pairs_total, serial.pairs_total);
    EXPECT_EQ(parallel.pairs_sampled, serial.pairs_sampled);
    expect_same_cdf(parallel.delay_ms, serial.delay_ms, "delay");
    expect_same_cdf(parallel.policy_hops, serial.policy_hops, "policy");
    expect_same_cdf(parallel.physical_hops, serial.physical_hops,
                    "physical");
    expect_same_cdf(parallel.away_time_share, serial.away_time_share,
                    "away");
  }
}

TEST(UpdateCostDeterminismTest, RatesBitIdenticalAcrossThreadCounts) {
  ThreadCountGuard guard;
  const auto run = [&](std::size_t threads) {
    exec::set_default_threads(threads);
    const core::DeviceUpdateCostEvaluator evaluator(
        shared_internet().vantages());
    return evaluator.evaluate(shared_device_traces());
  };
  const auto serial = run(1);
  for (const std::size_t threads : {2u, 8u}) {
    const auto parallel = run(threads);
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t r = 0; r < serial.size(); ++r) {
      EXPECT_EQ(parallel[r].router, serial[r].router);
      EXPECT_EQ(parallel[r].events, serial[r].events);
      EXPECT_EQ(parallel[r].updates, serial[r].updates);
    }
  }
}

void expect_same_tallies(const std::vector<core::RouterUpdateStats>& a,
                         const std::vector<core::RouterUpdateStats>& b,
                         std::string_view what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t r = 0; r < a.size(); ++r) {
    EXPECT_EQ(a[r].router, b[r].router) << what;
    EXPECT_EQ(a[r].events, b[r].events) << what << " " << a[r].router;
    EXPECT_EQ(a[r].updates, b[r].updates) << what << " " << a[r].router;
  }
}

constexpr strategy::StrategyKind kAllStrategies[] = {
    strategy::StrategyKind::kBestPort,
    strategy::StrategyKind::kControlledFlooding,
    strategy::StrategyKind::kHistoryUnion};

TEST(ContentUpdateCostDeterminismTest, TalliesIdenticalAcrossThreadCounts) {
  // Routers fan out over one shared read-only address index; every
  // strategy's tallies must not depend on the worker count.
  ThreadCountGuard guard;
  const core::ContentUpdateCostEvaluator evaluator(
      shared_internet().vantages());
  for (const auto kind : kAllStrategies) {
    const auto run = [&](std::size_t threads) {
      exec::set_default_threads(threads);
      return evaluator.evaluate(shared_content_catalog().popular, kind);
    };
    const auto serial = run(1);
    for (const std::size_t threads : {2u, 8u}) {
      expect_same_tallies(run(threads), serial,
                          strategy::strategy_name(kind));
    }
  }
}

TEST(MultihomedUpdateCostDeterminismTest,
     TalliesIdenticalAcrossThreadCounts) {
  ThreadCountGuard guard;
  const auto views =
      mobility::multihomed_views(shared_device_traces(), 1.0);
  const core::MultihomedDeviceUpdateCostEvaluator evaluator(
      shared_internet().vantages());
  for (const auto kind : kAllStrategies) {
    const auto run = [&](std::size_t threads) {
      exec::set_default_threads(threads);
      return evaluator.evaluate(views, kind);
    };
    const auto serial = run(1);
    for (const std::size_t threads : {2u, 8u}) {
      expect_same_tallies(run(threads), serial,
                          strategy::strategy_name(kind));
    }
  }
}

TEST(DeviceUpdateCostConcurrencyTest, TwoCallersShareOneEvaluator) {
  // Two plain threads calling evaluate on one evaluator: at one worker
  // each call runs its router loop inline on its own thread, so the
  // evaluator's shared state must be read-only or synchronized (a lazily
  // filled per-router slot would race here under TSan).
  ThreadCountGuard guard;
  exec::set_default_threads(1);
  const core::DeviceUpdateCostEvaluator evaluator(
      shared_internet().vantages());
  std::vector<core::RouterUpdateStats> first, second;
  std::thread a([&] { first = evaluator.evaluate(shared_device_traces()); });
  std::thread b(
      [&] { second = evaluator.evaluate_day(shared_device_traces(), 2); });
  a.join();
  b.join();
  const core::DeviceUpdateCostEvaluator fresh(shared_internet().vantages());
  expect_same_tallies(first, fresh.evaluate(shared_device_traces()),
                      "evaluate");
  expect_same_tallies(second, fresh.evaluate_day(shared_device_traces(), 2),
                      "evaluate_day");
}

TEST(FabricMemoTest, DegradedGraphBuildsOncePerPlanEpoch) {
  obs::Registry::instance().reset();
  const obs::EnabledScope scope;
  const sim::ForwardingFabric fabric(shared_internet());
  const auto& edges = shared_internet().edge_ases();
  const AsId from = edges[1];
  const AsId dest = edges[10];
  // Take down the first transit hop of the policy route so every
  // failure-aware query inside the window needs the degraded graph.
  const AsId transit = fabric.hop_toward(from, dest)->next;
  sim::FailurePlan plan(7);
  plan.as_outage(transit, 500.0, 3000.0);

  // Repeated queries (serially and racing across workers) within one
  // fault epoch: the memoizer must build the surviving-topology graph
  // exactly once, not once per query as a per-call cache would.
  for (double t = 600.0; t < 2900.0; t += 100.0) {
    (void)fabric.hop_toward(from, dest, plan, t);
    (void)fabric.path_delay_ms(from, dest, plan, t);
  }
  exec::parallel_for(
      64,
      [&](std::size_t i) {
        (void)fabric.hop_toward(from, dest, plan,
                                600.0 + static_cast<double>(i % 23) * 100.0);
      },
      8);
  EXPECT_EQ(obs::metric::fabric_degraded_graph_builds().value(), 1u);
  obs::Registry::instance().enable(false);
}

TEST(FabricConcurrencyTest, RacingFirstTouchesReadTheSerialRows) {
  const sim::ForwardingFabric serial(shared_internet());
  const sim::ForwardingFabric shared(shared_internet());
  const auto count = static_cast<AsId>(shared_internet().graph().as_count());
  // Every 5th destination against every source keeps the TSan run short
  // while each row is still first touched by racing threads.
  std::vector<AsId> dests;
  for (AsId dest = 0; dest < count; dest += 5) dests.push_back(dest);

  struct Answers {
    std::vector<std::optional<sim::Hop>> next;
    std::vector<std::optional<double>> delay;
    std::vector<std::size_t> physical;
  };
  const auto slot = [&](std::size_t d, AsId from) {
    return d * count + from;
  };
  const auto answer = [&](const sim::ForwardingFabric& fabric,
                          std::size_t first, bool reverse) {
    Answers out;
    out.next.resize(dests.size() * count);
    out.delay.resize(dests.size() * count);
    out.physical.resize(dests.size() * count);
    for (std::size_t i = 0; i < dests.size(); ++i) {
      const std::size_t d = (first + (reverse ? dests.size() - i : i)) %
                            dests.size();
      for (AsId from = 0; from < count; ++from) {
        out.next[slot(d, from)] = fabric.hop_toward(from, dests[d]);
        out.delay[slot(d, from)] = fabric.path_delay_ms(from, dests[d]);
        out.physical[slot(d, from)] = fabric.physical_hops(dests[d], from);
      }
    }
    return out;
  };
  const Answers expected = answer(serial, 0, false);

  constexpr std::size_t kThreads = 8;
  std::vector<Answers> got(kThreads);
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      got[t] = answer(shared, t * dests.size() / kThreads, t % 2 == 1);
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(got[t].next, expected.next) << "thread " << t;
    // Exact double equality on purpose: the contract is bit-identity.
    EXPECT_EQ(got[t].delay, expected.delay) << "thread " << t;
    EXPECT_EQ(got[t].physical, expected.physical) << "thread " << t;
  }
}

}  // namespace
}  // namespace lina
