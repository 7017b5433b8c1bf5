// The parallel batch decode (TraceReader::next_batch under
// DeviceTraceStream::next_batch) against the one-user path: for every
// thread count, batch size and start index, the batches must hold exactly
// the traces a loop of next() yields, bit for bit, and leave the same
// trace counters behind.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <vector>

#include "../support/fixtures.hpp"
#include "lina/obs/metrics.hpp"
#include "lina/trace/streaming.hpp"
#include "trace_test_util.hpp"

namespace lina::trace {
namespace {

using lina::testing::shared_internet;
using lina::testing::TempTraceDir;
using lina::testing::ThreadCountGuard;

/// 5000 one-day users over 2048-user shards (2048 + 2048 + 904): batches
/// of up to 3000 users fill whole shards and straddle shard boundaries.
const ShardSet& large_shards() {
  static TempTraceDir dir("batch-decode");
  static const ShardSet set = [] {
    mobility::DeviceWorkloadConfig config;
    config.user_count = 5000;
    config.days = 1;
    const mobility::DeviceWorkloadGenerator generator(shared_internet(),
                                                      config);
    StreamingWorkloadConfig stream_config;
    stream_config.users_per_shard = 2048;
    return StreamingWorkload(generator, stream_config)
        .write_shards(dir.path());
  }();
  return set;
}

/// Every user of the set, decoded one at a time with next().
const std::vector<mobility::DeviceTrace>& one_by_one() {
  static const std::vector<mobility::DeviceTrace> traces = [] {
    std::vector<mobility::DeviceTrace> all;
    DeviceTraceStream stream(large_shards());
    while (std::optional<mobility::DeviceTrace> trace = stream.next()) {
      all.push_back(std::move(*trace));
    }
    return all;
  }();
  return traces;
}

void expect_same_trace(const mobility::DeviceTrace& want,
                       const mobility::DeviceTrace& got) {
  ASSERT_EQ(want.user_id(), got.user_id());
  ASSERT_EQ(want.day_count(), got.day_count());
  ASSERT_EQ(want.visits().size(), got.visits().size()) << want.user_id();
  for (std::size_t i = 0; i < want.visits().size(); ++i) {
    const mobility::DeviceVisit& a = want.visits()[i];
    const mobility::DeviceVisit& b = got.visits()[i];
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.start_hour),
              std::bit_cast<std::uint64_t>(b.start_hour));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.duration_hours),
              std::bit_cast<std::uint64_t>(b.duration_hours));
    EXPECT_EQ(a.address, b.address);
    EXPECT_EQ(a.prefix, b.prefix);
    EXPECT_EQ(a.as, b.as);
    EXPECT_EQ(a.cellular, b.cellular);
  }
}

TEST(TraceBatchDecodeTest, NextBatchEqualsNextLoop) {
  const ThreadCountGuard guard;
  const std::vector<mobility::DeviceTrace>& want = one_by_one();
  ASSERT_EQ(want.size(), 5000u);
  for (const std::size_t threads : {1u, 2u, 4u}) {
    exec::set_default_threads(threads);
    for (const std::size_t batch : {1u, 1000u, 2048u, 3000u}) {
      // Shard starts, mid-shard starts, the last user.
      for (const std::size_t first : {0u, 1000u, 2047u, 2048u, 4999u}) {
        SCOPED_TRACE(::testing::Message()
                     << threads << " threads, batch " << batch
                     << ", first user " << first);
        DeviceTraceStream stream(large_shards(), first);
        std::size_t user = first;
        while (true) {
          const std::vector<mobility::DeviceTrace> got =
              stream.next_batch(batch);
          if (got.empty()) break;
          ASSERT_EQ(got.size(), std::min(batch, want.size() - user));
          for (const mobility::DeviceTrace& trace : got) {
            expect_same_trace(want[user++], trace);
          }
          EXPECT_EQ(stream.next_index(), user);
        }
        EXPECT_EQ(user, want.size());
        EXPECT_TRUE(stream.done());
      }
    }
  }
}

TEST(TraceBatchDecodeTest, CountersMatchTheOneUserPath) {
  const ThreadCountGuard guard;
  const obs::EnabledScope recording(true);
  const auto read_all = [](bool batched) {
    const std::uint64_t visits = obs::metric::trace_visits_read().value();
    const std::uint64_t bytes = obs::metric::trace_bytes_read().value();
    const std::uint64_t shards = obs::metric::trace_shards_read().value();
    DeviceTraceStream stream(large_shards());
    if (batched) {
      while (!stream.next_batch(2048).empty()) {
      }
    } else {
      while (stream.next().has_value()) {
      }
    }
    return std::vector<std::uint64_t>{
        obs::metric::trace_visits_read().value() - visits,
        obs::metric::trace_bytes_read().value() - bytes,
        obs::metric::trace_shards_read().value() - shards};
  };
  const std::vector<std::uint64_t> want = read_all(false);
  EXPECT_EQ(want[0], large_shards().visit_count());
  EXPECT_EQ(want[2], large_shards().shards().size());
  for (const std::size_t threads : {1u, 4u}) {
    exec::set_default_threads(threads);
    EXPECT_EQ(read_all(true), want) << threads << " threads";
  }
}

TEST(TraceBatchDecodeTest, ReaderMixesOneUserAndBatchCalls) {
  const ThreadCountGuard guard;
  exec::set_default_threads(4);
  const ShardInfo& shard = large_shards().shards().front();
  TraceReader reader(shard);
  std::vector<mobility::DeviceTrace> got;
  got.push_back(*reader.next());
  EXPECT_EQ(reader.next_batch(1000, got), 1000u);
  got.push_back(*reader.next());
  // Asks past the shard's end: only the users left come back.
  EXPECT_EQ(reader.next_batch(5000, got), 1046u);
  EXPECT_EQ(reader.next_batch(5000, got), 0u);
  EXPECT_FALSE(reader.next().has_value());
  ASSERT_EQ(got.size(), 2048u);
  for (std::size_t u = 0; u < got.size(); ++u) {
    expect_same_trace(one_by_one()[u], got[u]);
  }
}

TEST(TraceBatchDecodeTest, ZeroUserBatchIsRejected) {
  DeviceTraceStream stream(large_shards());
  EXPECT_THROW((void)stream.next_batch(0), std::invalid_argument);
  // The stream is untouched and still yields every user.
  EXPECT_EQ(stream.next_index(), 0u);
  EXPECT_EQ(stream.next_batch(5000).size(), 5000u);
}

}  // namespace
}  // namespace lina::trace
