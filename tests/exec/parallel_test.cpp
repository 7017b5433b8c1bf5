#include "lina/exec/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "lina/exec/memo.hpp"
#include "lina/exec/thread_pool.hpp"
#include "lina/stats/rng.hpp"

namespace lina::exec {
namespace {

TEST(ThreadPoolTest, DefaultThreadsFollowsOverride) {
  set_default_threads(3);
  EXPECT_EQ(default_threads(), 3u);
  set_default_threads(0);  // back to hardware default
  EXPECT_EQ(default_threads(), hardware_threads());
  EXPECT_GE(hardware_threads(), 1u);
}

TEST(ParallelForTest, VisitsEveryIndexExactlyOnce) {
  constexpr std::size_t kItems = 997;
  std::vector<std::atomic<int>> visits(kItems);
  parallel_for(
      kItems, [&](std::size_t i) { visits[i].fetch_add(1); }, 4);
  for (std::size_t i = 0; i < kItems; ++i) {
    EXPECT_EQ(visits[i].load(), 1) << i;
  }
}

TEST(ParallelForTest, ZeroItemsIsANoOp) {
  parallel_for(0, [](std::size_t) { FAIL() << "must not be called"; }, 4);
}

TEST(ParallelMapTest, ResultsLandInItemOrder) {
  const auto out = parallel_map(
      500, [](std::size_t i) { return i * i; }, 8);
  ASSERT_EQ(out.size(), 500u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], i * i) << i;
  }
}

TEST(ParallelMapTest, MoveOnlyResultsWork) {
  const auto out = parallel_map(
      64, [](std::size_t i) { return std::to_string(i); }, 4);
  ASSERT_EQ(out.size(), 64u);
  EXPECT_EQ(out[63], "63");
}

TEST(ParallelMapTest, MatchesSerialAtEveryThreadCount) {
  const auto expected =
      parallel_map(301, [](std::size_t i) { return 3 * i + 1; }, 1);
  for (const std::size_t threads : {2u, 5u, 8u}) {
    EXPECT_EQ(parallel_map(
                  301, [](std::size_t i) { return 3 * i + 1; }, threads),
              expected)
        << threads << " threads";
  }
}

TEST(ParallelForTest, ExceptionsPropagateToCaller) {
  EXPECT_THROW(parallel_for(
                   100,
                   [](std::size_t i) {
                     if (i == 41) throw std::runtime_error("boom");
                   },
                   4),
               std::runtime_error);
  // The pool survives a throwing job and keeps serving work.
  std::atomic<int> count{0};
  parallel_for(10, [&](std::size_t) { count.fetch_add(1); }, 4);
  EXPECT_EQ(count.load(), 10);
}

TEST(ParallelForTest, LowestFailingItemWinsAtEveryThreadCount) {
  // Items 3 and 700 both throw; whichever finishes first in time, the
  // caller must see item 3's error, as the serial loop would.
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    for (int repeat = 0; repeat < 50; ++repeat) {
      try {
        parallel_for(
            1000,
            [](std::size_t i) {
              if (i == 3) {
                // Let item 700 fail first in time.
                std::this_thread::sleep_for(std::chrono::microseconds(200));
                throw std::runtime_error("item 3");
              }
              if (i == 700) throw std::logic_error("item 700");
            },
            threads);
        ADD_FAILURE() << "no exception at " << threads << " threads";
      } catch (const std::runtime_error& error) {
        EXPECT_STREQ(error.what(), "item 3") << threads << " threads";
      } catch (const std::logic_error& error) {
        ADD_FAILURE() << "got " << error.what() << " at " << threads
                      << " threads, repeat " << repeat;
      }
    }
  }
  EXPECT_TRUE(ThreadPool::shared().idle());
}

TEST(ParallelForTest, NestedCallsRunInlineWithoutDeadlock) {
  std::atomic<int> inner_total{0};
  std::atomic<int> nested_regions{0};
  parallel_for(
      8,
      [&](std::size_t) {
        EXPECT_TRUE(in_parallel_region());
        // A nested region must degrade to an inline serial loop (no
        // re-entry into the single-job pool, which would deadlock).
        parallel_for(
            16, [&](std::size_t) { inner_total.fetch_add(1); }, 4);
        nested_regions.fetch_add(1);
      },
      4);
  EXPECT_FALSE(in_parallel_region());
  EXPECT_EQ(nested_regions.load(), 8);
  EXPECT_EQ(inner_total.load(), 8 * 16);
}

TEST(MemoTest, BuildsEachKeyExactlyOnceUnderContention) {
  Memo<std::size_t, std::size_t> memo;
  std::atomic<std::size_t> builds{0};
  constexpr std::size_t kKeys = 17;
  // 40 queries per key race through the memo; every hit must observe the
  // one value built for that key.
  parallel_for(
      kKeys * 40,
      [&](std::size_t i) {
        const std::size_t key = i % kKeys;
        const std::size_t& value = memo.get_or_build(key, [&] {
          builds.fetch_add(1);
          return key * 1000;
        });
        EXPECT_EQ(value, key * 1000);
      },
      8);
  EXPECT_EQ(builds.load(), kKeys);
  EXPECT_EQ(memo.size(), kKeys);
}

TEST(MemoTest, FindAndClear) {
  Memo<int, int> memo;
  EXPECT_EQ(memo.find(7), nullptr);
  memo.get_or_build(7, [] { return 70; });
  ASSERT_NE(memo.find(7), nullptr);
  EXPECT_EQ(*memo.find(7), 70);
  memo.clear();
  EXPECT_EQ(memo.find(7), nullptr);
  EXPECT_EQ(memo.size(), 0u);
}

TEST(MemoTest, TupleKeysHashAndCompare) {
  Memo<std::tuple<std::uint64_t, std::size_t, int>, int, TupleHash> memo;
  const auto key_a = std::make_tuple(std::uint64_t{1}, std::size_t{2}, 3);
  const auto key_b = std::make_tuple(std::uint64_t{1}, std::size_t{2}, 4);
  EXPECT_EQ(memo.get_or_build(key_a, [] { return 10; }), 10);
  EXPECT_EQ(memo.get_or_build(key_b, [] { return 20; }), 20);
  EXPECT_EQ(memo.get_or_build(key_a, [] { return 99; }), 10);  // cached
  Memo<std::pair<std::uint64_t, std::size_t>, int, TupleHash> pair_memo;
  EXPECT_EQ(pair_memo.get_or_build({5, 6}, [] { return 56; }), 56);
}

TEST(RngSplitTest, SubstreamIsPureFunctionOfSeedAndIndex) {
  stats::Rng a(12345);
  stats::Rng b(12345);
  // Drain draws from one parent only: split() must not care.
  for (int i = 0; i < 100; ++i) (void)b.uniform();
  for (const std::uint64_t index : {0ull, 1ull, 63ull, 1'000'000ull}) {
    stats::Rng child_a = a.split(index);
    stats::Rng child_b = b.split(index);
    for (int draw = 0; draw < 16; ++draw) {
      EXPECT_EQ(child_a(), child_b()) << "index " << index;
    }
  }
}

TEST(RngSplitTest, DistinctIndicesGiveDistinctStreams) {
  const stats::Rng parent(777);
  stats::Rng s0 = parent.split(0);
  stats::Rng s1 = parent.split(1);
  int equal = 0;
  for (int draw = 0; draw < 16; ++draw) {
    if (s0() == s1()) ++equal;
  }
  EXPECT_EQ(equal, 0);
}

}  // namespace
}  // namespace lina::exec
