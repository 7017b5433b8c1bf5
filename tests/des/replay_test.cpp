// Streamed replay across threads: each batch decodes its own users and
// runs on its own single-threaded engine, concurrently with the others,
// so every counter the replay reports must equal the one-thread run at
// any thread count and for batches that do not line up with trace
// shards, and a rejected config must surface on the calling thread with
// the pool left idle.

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

/// The replay sizes its rounds by the default pool width; restore the
/// width a test found when it ends.
struct DefaultThreadsGuard {
  std::size_t saved = exec::default_threads();
  ~DefaultThreadsGuard() { exec::set_default_threads(saved); }
};

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
  EXPECT_EQ(got.batches, want.batches) << where;
  EXPECT_EQ(got.shard_events, want.shard_events) << where;
  EXPECT_EQ(got.shard_imbalance, want.shard_imbalance) << where;
}

TEST(DesReplayThreadsTest, CountersMatchOneThreadAcrossThreadMatrix) {
  // 12 users over 5-user shards in batches of 5 (3 batches, the last
  // partial) or 3 (4 batches, three of them starting mid-shard), at 2, 3
  // and 8 threads: fewer, equal and more threads than batches.
  const DefaultThreadsGuard guard;
  for (const std::size_t batch : {5u, 3u}) {
    PacketReplayConfig config = base_config();
    config.batch_users = batch;
    exec::set_default_threads(1);
    const PacketReplayStats one_thread =
        replay_packets_streamed(fabric(), trace_set(), config);
    ASSERT_EQ(one_thread.sessions, 12u);
    ASSERT_EQ(one_thread.batches, (12 + batch - 1) / batch);
    ASSERT_GT(one_thread.handoffs, 0u);
    for (const std::size_t threads : {2u, 3u, 8u}) {
      exec::set_default_threads(threads);
      expect_same_replay(
          replay_packets_streamed(fabric(), trace_set(), config), one_thread,
          "batch=" + std::to_string(batch) +
              " threads=" + std::to_string(threads));
    }
  }
}

/// 5000 users over 2048-user shards (2048 + 2048 + 904), written once per
/// test process: batch sizes that start and end mid-shard.
const trace::ShardSet& wide_trace_set() {
  static const lina::testing::TempTraceDir dir("des-replay-unaligned");
  static const trace::ShardSet set = [] {
    mobility::DeviceWorkloadConfig workload;
    workload.user_count = 5000;
    workload.days = 1;
    const mobility::DeviceWorkloadGenerator generator(shared_internet(),
                                                      workload);
    trace::StreamingWorkloadConfig stream;
    stream.users_per_shard = 2048;
    return trace::StreamingWorkload(generator, stream)
        .write_shards(dir.path());
  }();
  return set;
}

TEST(DesReplayThreadsTest, UnalignedBatchesMatchAlignedSerialRun) {
  const DefaultThreadsGuard guard;
  PacketReplayConfig config = base_config();
  config.hours = 6.0;
  config.interval_ms = 500.0;
  config.batch_users = 2048;  // one batch per shard
  config.serial = true;
  exec::set_default_threads(1);
  const PacketReplayStats aligned =
      replay_packets_streamed(fabric(), wide_trace_set(), config);
  ASSERT_EQ(aligned.sessions, 5000u);
  ASSERT_GT(aligned.events, 0u);

  // 1000: batches start mid-shard and straddle shard edges. 3000: larger
  // than a shard. 4500: the first batch spans all three shards. Each size
  // leaves a last partial batch.
  for (const std::size_t batch : {1000u, 3000u, 4500u}) {
    config.batch_users = batch;
    PacketReplayStats sharded_one_thread;
    for (const std::size_t threads : {1u, 2u, 4u}) {
      exec::set_default_threads(threads);
      const std::string where = "batch=" + std::to_string(batch) +
                                " threads=" + std::to_string(threads);
      config.serial = true;
      const PacketReplayStats serial =
          replay_packets_streamed(fabric(), wide_trace_set(), config);
      EXPECT_EQ(serial.digest, aligned.digest) << where;
      EXPECT_EQ(serial.sessions, aligned.sessions) << where;
      EXPECT_EQ(serial.events, aligned.events) << where;
      EXPECT_EQ(serial.windows, aligned.windows) << where;
      EXPECT_EQ(serial.handoffs, aligned.handoffs) << where;
      EXPECT_EQ(serial.bundles, aligned.bundles) << where;
      EXPECT_EQ(serial.batches, (5000 + batch - 1) / batch) << where;

      // The sharded engine delivers the same packets; its window shape
      // depends on the batch's sessions, so it is pinned across threads.
      config.serial = false;
      const PacketReplayStats sharded =
          replay_packets_streamed(fabric(), wide_trace_set(), config);
      EXPECT_EQ(sharded.digest, aligned.digest) << where;
      EXPECT_EQ(sharded.events, aligned.events) << where;
      if (threads == 1) {
        ASSERT_GT(sharded.handoffs, 0u) << where;
        sharded_one_thread = sharded;
      } else {
        expect_same_replay(sharded, sharded_one_thread, where);
      }
    }
  }
}

TEST(DesReplayThreadsTest, RejectionThrowsOnCallerAndLeavesPoolIdle) {
  const DefaultThreadsGuard guard;
  PacketReplayConfig config = base_config();
  config.batch_users = 3;
  const PacketReplayStats fresh =
      replay_packets_streamed(fabric(), trace_set(), config);

  for (const std::size_t threads : {1u, 4u}) {
    exec::set_default_threads(threads);
    // The model rejects every session: each batch task throws while
    // building its model, and the failure is rethrown on the caller once
    // every task has drained.
    PacketReplayConfig bad_model = config;
    bad_model.correspondent = static_cast<topology::AsId>(
        shared_internet().graph().as_count());
    EXPECT_THROW((void)replay_packets_streamed(fabric(), trace_set(),
                                               bad_model),
                 std::out_of_range)
        << "threads=" << threads;
    EXPECT_TRUE(exec::ThreadPool::shared().idle());
    EXPECT_FALSE(exec::in_parallel_region());

    // Each batch's model rejects a fault outside the graph.
    sim::FailurePlan outside;
    outside.as_outage(bad_model.correspondent, 100.0, 200.0);
    PacketReplayConfig bad_plan = config;
    bad_plan.failures = &outside;
    EXPECT_THROW((void)replay_packets_streamed(fabric(), trace_set(),
                                               bad_plan),
                 std::out_of_range)
        << "threads=" << threads;
    EXPECT_TRUE(exec::ThreadPool::shared().idle());

    // The engine rejects its config once a task's model is built: the
    // failure is rethrown on the caller once every batch has drained.
    PacketReplayConfig bad_engine = config;
    bad_engine.engine.window_ms = -1.0;
    EXPECT_THROW((void)replay_packets_streamed(fabric(), trace_set(),
                                               bad_engine),
                 std::invalid_argument)
        << "threads=" << threads;
    EXPECT_TRUE(exec::ThreadPool::shared().idle());
    EXPECT_FALSE(exec::in_parallel_region());

    // A zero batch size is rejected before any task starts.
    PacketReplayConfig no_batch = config;
    no_batch.batch_users = 0;
    EXPECT_THROW((void)replay_packets_streamed(fabric(), trace_set(),
                                               no_batch),
                 std::invalid_argument)
        << "threads=" << threads;
    EXPECT_TRUE(exec::ThreadPool::shared().idle());

    expect_same_replay(replay_packets_streamed(fabric(), trace_set(), config),
                       fresh, "after rejection, threads=" +
                                  std::to_string(threads));
  }
}

}  // namespace
}  // namespace lina::des
