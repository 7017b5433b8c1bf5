// Streamed replay across threads: batches run concurrently, each on its
// own single-threaded engine, so every counter the replay reports must
// equal the one-thread run at any thread count — including rounds that
// are only partly filled — and a rejected config must surface on the
// calling thread with the pool left idle.

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "../support/fixtures.hpp"
#include "../trace/trace_test_util.hpp"
#include "lina/des/replay.hpp"
#include "lina/exec/thread_pool.hpp"
#include "lina/mobility/device_workload.hpp"
#include "lina/trace/streaming.hpp"

namespace lina::des {
namespace {

using lina::testing::shared_internet;

const sim::ForwardingFabric& fabric() {
  static const sim::ForwardingFabric instance(shared_internet());
  return instance;
}

/// 12 users over 3 trace shards, written once per test process.
const trace::ShardSet& trace_set() {
  static const lina::testing::TempTraceDir dir("des-replay-threads");
  static const trace::ShardSet set = [] {
    mobility::DeviceWorkloadConfig workload;
    workload.user_count = 12;
    workload.days = 3;
    const mobility::DeviceWorkloadGenerator generator(shared_internet(),
                                                      workload);
    trace::StreamingWorkloadConfig stream;
    stream.users_per_shard = 5;
    return trace::StreamingWorkload(generator, stream)
        .write_shards(dir.path());
  }();
  return set;
}

PacketReplayConfig base_config() {
  PacketReplayConfig config;
  config.architecture = sim::SimArchitecture::kReplicatedResolution;
  config.hours = 24.0;
  config.interval_ms = 400.0;
  const auto& edges = shared_internet().edge_ases();
  config.correspondent = edges[0];
  config.replicas = {edges[1], edges[2], edges[3]};
  config.engine.shard_count = 4;
  return config;
}

void expect_same_replay(const PacketReplayStats& got,
                        const PacketReplayStats& want,
                        const std::string& where) {
  EXPECT_EQ(got.digest, want.digest) << where;
  EXPECT_EQ(got.sessions, want.sessions) << where;
  EXPECT_EQ(got.events, want.events) << where;
  EXPECT_EQ(got.windows, want.windows) << where;
  EXPECT_EQ(got.handoffs, want.handoffs) << where;
  EXPECT_EQ(got.bundles, want.bundles) << where;
  EXPECT_EQ(got.redrain_passes, want.redrain_passes) << where;
  EXPECT_EQ(got.rollbacks, want.rollbacks) << where;
  EXPECT_EQ(got.rolled_back_events, want.rolled_back_events) << where;
  EXPECT_EQ(got.batches, want.batches) << where;
  EXPECT_EQ(got.shard_events, want.shard_events) << where;
  EXPECT_EQ(got.shard_imbalance, want.shard_imbalance) << where;
}

TEST(DesReplayThreadsTest, CountersMatchOneThreadAcrossThreadMatrix) {
  // 12 users in batches of 5 (3 batches, the last partial) or 3 (4
  // batches): at 2, 3 and 8 threads at least one of the two leaves the
  // last round partly filled.
  for (const SyncMode sync :
       {SyncMode::kConservative, SyncMode::kOptimistic}) {
    for (const std::size_t batch : {5u, 3u}) {
      PacketReplayConfig config = base_config();
      config.engine.sync = sync;
      config.batch_users = batch;
      config.engine.threads = 1;
      const PacketReplayStats one_thread =
          replay_packets_streamed(fabric(), trace_set(), config);
      ASSERT_EQ(one_thread.sessions, 12u);
      ASSERT_EQ(one_thread.batches, (12 + batch - 1) / batch);
      ASSERT_GT(one_thread.handoffs, 0u);
      for (const std::size_t threads : {2u, 3u, 8u}) {
        config.engine.threads = threads;
        expect_same_replay(
            replay_packets_streamed(fabric(), trace_set(), config),
            one_thread,
            "sync=" + std::to_string(static_cast<int>(sync)) +
                " batch=" + std::to_string(batch) +
                " threads=" + std::to_string(threads));
      }
    }
  }
}

TEST(DesReplayThreadsTest, RejectionThrowsOnCallerAndLeavesPoolIdle) {
  PacketReplayConfig config = base_config();
  config.batch_users = 3;
  const PacketReplayStats fresh =
      replay_packets_streamed(fabric(), trace_set(), config);

  for (const std::size_t threads : {1u, 4u}) {
    // The model rejects every session: the calling thread throws while
    // building the first round, before any batch runs.
    PacketReplayConfig bad_model = config;
    bad_model.engine.threads = threads;
    bad_model.correspondent = static_cast<topology::AsId>(
        shared_internet().graph().as_count());
    EXPECT_THROW((void)replay_packets_streamed(fabric(), trace_set(),
                                               bad_model),
                 std::invalid_argument)
        << "threads=" << threads;
    EXPECT_TRUE(exec::ThreadPool::shared().idle());
    EXPECT_FALSE(exec::in_parallel_region());

    // The engine rejects its config inside the round's pool job: the
    // failure is rethrown on the caller once every batch has drained.
    PacketReplayConfig bad_engine = config;
    bad_engine.engine.threads = threads;
    bad_engine.engine.window_ms = -1.0;
    EXPECT_THROW((void)replay_packets_streamed(fabric(), trace_set(),
                                               bad_engine),
                 std::invalid_argument)
        << "threads=" << threads;
    EXPECT_TRUE(exec::ThreadPool::shared().idle());
    EXPECT_FALSE(exec::in_parallel_region());

    PacketReplayConfig valid = config;
    valid.engine.threads = threads;
    expect_same_replay(replay_packets_streamed(fabric(), trace_set(), valid),
                       fresh, "after rejection, threads=" +
                                  std::to_string(threads));
  }
}

}  // namespace
}  // namespace lina::des
