// Bit-identity of streamed replay: every evaluator fed from a shard set
// in bounded-memory batches must reproduce its in-memory counterpart
// exactly — same CDF samples, same integer tallies, same per-session
// statistics for all four architectures — at any batch size.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <vector>

#include "../support/fixtures.hpp"
#include "lina/core/extent.hpp"
#include "lina/core/latency_model.hpp"
#include "lina/core/update_cost.hpp"
#include "lina/sim/session.hpp"
#include "lina/trace/replay.hpp"
#include "trace_test_util.hpp"

namespace lina::trace {
namespace {

using lina::testing::TempTraceDir;
using lina::testing::shared_device_traces;
using lina::testing::shared_internet;

/// Shards the shared 80-user population (16 users/shard -> 5 shards).
const ShardSet& shared_shards() {
  static TempTraceDir dir("streamed-replay");
  static const ShardSet set = [] {
    mobility::DeviceWorkloadConfig config;
    config.user_count = 80;
    config.days = 7;
    const mobility::DeviceWorkloadGenerator generator(shared_internet(),
                                                      config);
    StreamingWorkloadConfig stream_config;
    stream_config.users_per_shard = 16;
    return StreamingWorkload(generator, stream_config)
        .write_shards(dir.path());
  }();
  return set;
}

void expect_same_samples(const stats::EmpiricalCdf& a,
                         const stats::EmpiricalCdf& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  const auto& sa = a.sorted_samples();
  const auto& sb = b.sorted_samples();
  for (std::size_t i = 0; i < sa.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(sa[i]),
              std::bit_cast<std::uint64_t>(sb[i]))
        << what << " sample " << i;
  }
}

TEST(StreamedReplayTest, StreamStartsAtAnyUserIndex) {
  // Shard starts, mid-shard indexes, the last user and past the end.
  const ShardSet& set = shared_shards();
  for (const std::size_t first : {0u, 7u, 16u, 31u, 48u, 79u, 80u, 200u}) {
    DeviceTraceStream stream(set, first);
    std::size_t user = first;
    while (const std::optional<mobility::DeviceTrace> trace = stream.next()) {
      ASSERT_LT(user, shared_device_traces().size()) << "first " << first;
      EXPECT_EQ(trace->user_id(), shared_device_traces()[user].user_id());
      EXPECT_EQ(trace->visits().size(),
                shared_device_traces()[user].visits().size());
      ++user;
    }
    EXPECT_EQ(user, std::max<std::size_t>(first, 80)) << "first " << first;
    EXPECT_EQ(stream.next_index(), user);
    EXPECT_TRUE(stream.done());
  }
}

TEST(StreamedReplayTest, ZeroUserBatchesAreRejectedNotSpun) {
  // An empty batch never advances the stream, so every streamed evaluator
  // would loop forever if next_batch(0) returned one.
  const ShardSet& set = shared_shards();
  DeviceTraceStream stream(set);
  EXPECT_THROW((void)stream.next_batch(0), std::invalid_argument);

  EXPECT_THROW((void)analyze_extent_streamed(set, 0), std::invalid_argument);
  const core::LatencyModel model(shared_internet());
  stats::Rng rng(99, "zero-batch");
  EXPECT_THROW(
      (void)evaluate_indirection_stretch_streamed(set, model, 0.05, rng, 0),
      std::invalid_argument);
  const core::DeviceUpdateCostEvaluator evaluator(
      shared_internet().vantages());
  EXPECT_THROW((void)evaluate_device_update_cost_streamed(evaluator, set, 0),
               std::invalid_argument);
  const sim::ForwardingFabric fabric(shared_internet());
  sim::SessionConfig base;
  base.correspondent = shared_internet().edge_ases()[0];
  EXPECT_THROW((void)simulate_sessions_streamed(
                   fabric, sim::SimArchitecture::kIndirection, base, 1.0, set,
                   0),
               std::invalid_argument);
}

TEST(StreamedReplayTest, ExtentBitIdentical) {
  const auto resident = core::analyze_extent(shared_device_traces());
  // Deliberately awkward batch size: batches straddle shard boundaries.
  const auto streamed = analyze_extent_streamed(shared_shards(), 13);

  expect_same_samples(resident.ips_per_day, streamed.ips_per_day, "ips");
  expect_same_samples(resident.prefixes_per_day, streamed.prefixes_per_day,
                      "prefixes");
  expect_same_samples(resident.ases_per_day, streamed.ases_per_day, "ases");
  expect_same_samples(resident.ip_transitions_per_day,
                      streamed.ip_transitions_per_day, "ip transitions");
  expect_same_samples(resident.as_transitions_per_day,
                      streamed.as_transitions_per_day, "as transitions");
  expect_same_samples(resident.dominant_ip_share, streamed.dominant_ip_share,
                      "dominant ip");
  expect_same_samples(resident.dominant_as_share, streamed.dominant_as_share,
                      "dominant as");
}

TEST(StreamedReplayTest, IndirectionStretchBitIdentical) {
  const core::LatencyModel model(shared_internet());
  stats::Rng resident_rng(99, "stretch-test");
  stats::Rng streamed_rng(99, "stretch-test");

  const auto resident = core::evaluate_indirection_stretch(
      shared_device_traces(), model, 0.05, resident_rng);
  const auto streamed = evaluate_indirection_stretch_streamed(
      shared_shards(), model, 0.05, streamed_rng, 13);

  EXPECT_EQ(resident.pairs_total, streamed.pairs_total);
  EXPECT_EQ(resident.pairs_sampled, streamed.pairs_sampled);
  expect_same_samples(resident.delay_ms, streamed.delay_ms, "delay");
  expect_same_samples(resident.policy_hops, streamed.policy_hops,
                      "policy hops");
  expect_same_samples(resident.physical_hops, streamed.physical_hops,
                      "physical hops");
  expect_same_samples(resident.away_time_share, streamed.away_time_share,
                      "away share");
}

TEST(StreamedReplayTest, DeviceUpdateCostBitIdentical) {
  const core::DeviceUpdateCostEvaluator evaluator(
      shared_internet().vantages());
  const auto resident = evaluator.evaluate(shared_device_traces());
  const auto streamed =
      evaluate_device_update_cost_streamed(evaluator, shared_shards(), 13);

  ASSERT_EQ(resident.size(), streamed.size());
  for (std::size_t r = 0; r < resident.size(); ++r) {
    EXPECT_EQ(resident[r].router, streamed[r].router);
    EXPECT_EQ(resident[r].events, streamed[r].events);
    EXPECT_EQ(resident[r].updates, streamed[r].updates);
  }
}

TEST(StreamedReplayTest, SessionsBitIdenticalForAllArchitectures) {
  // A small population keeps four discrete-event sweeps fast.
  TempTraceDir dir("streamed-sessions");
  mobility::DeviceWorkloadConfig config;
  config.user_count = 12;
  config.days = 3;
  const mobility::DeviceWorkloadGenerator generator(shared_internet(),
                                                    config);
  StreamingWorkloadConfig stream_config;
  stream_config.users_per_shard = 5;  // 3 shards
  const ShardSet set =
      StreamingWorkload(generator, stream_config).write_shards(dir.path());

  const sim::ForwardingFabric fabric(shared_internet());
  sim::SessionConfig base;
  base.correspondent = shared_internet().edge_ases()[0];
  base.resolver_as = shared_internet().edge_ases()[1];
  base.resolver_replicas = {shared_internet().edge_ases()[1],
                            shared_internet().edge_ases()[2],
                            shared_internet().edge_ases()[3]};
  base.packet_interval_ms = 25.0;
  const double hours = 24.0;

  for (const sim::SimArchitecture architecture :
       {sim::SimArchitecture::kIndirection,
        sim::SimArchitecture::kNameResolution,
        sim::SimArchitecture::kReplicatedResolution,
        sim::SimArchitecture::kNameBased}) {
    // In-memory reference: one session per user in user order.
    std::vector<sim::SessionStats> resident;
    for (std::uint32_t u = 0; u < config.user_count; ++u) {
      sim::SessionConfig session = base;
      session.duration_ms = hours * 1000.0;
      session.schedule =
          session_schedule_from_trace(generator.generate_user(u), hours);
      resident.push_back(
          sim::simulate_session(fabric, architecture, session));
    }

    const std::vector<sim::SessionStats> streamed =
        simulate_sessions_streamed(fabric, architecture, base, hours, set,
                                   5);

    ASSERT_EQ(resident.size(), streamed.size());
    for (std::size_t u = 0; u < resident.size(); ++u) {
      EXPECT_EQ(resident[u].packets_sent, streamed[u].packets_sent);
      EXPECT_EQ(resident[u].packets_delivered,
                streamed[u].packets_delivered);
      EXPECT_EQ(resident[u].packets_lost, streamed[u].packets_lost);
      EXPECT_EQ(resident[u].control_messages, streamed[u].control_messages);
      expect_same_samples(resident[u].delivery_delay_ms,
                          streamed[u].delivery_delay_ms, "delivery delay");
      expect_same_samples(resident[u].stretch, streamed[u].stretch,
                          "stretch");
      expect_same_samples(resident[u].outage_ms, streamed[u].outage_ms,
                          "outage");
    }
  }
}

}  // namespace
}  // namespace lina::trace
