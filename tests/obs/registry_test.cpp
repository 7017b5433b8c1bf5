// lina::obs core: registry semantics, concurrency and histogram quantile
// edge cases. Runs under the `obs` ctest label.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "lina/obs/registry.hpp"

namespace lina::obs {
namespace {

class RegistryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Registry::instance().reset();
    Registry::instance().enable(false);
  }
  void TearDown() override {
    Registry::instance().enable(false);
    Registry::instance().reset();
  }
};

TEST_F(RegistryTest, DisabledCounterIsANoOp) {
  Counter c = Registry::instance().counter("test.counter.disabled");
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 0u);
  EXPECT_TRUE(Registry::instance().snapshot().empty());
}

TEST_F(RegistryTest, EnabledCounterAccumulates) {
  EnabledScope scope;
  Counter c = Registry::instance().counter("test.counter.enabled");
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST_F(RegistryTest, RegistrationDeduplicatesByName) {
  EnabledScope scope;
  Counter a = Registry::instance().counter("test.counter.shared");
  Counter b = Registry::instance().counter("test.counter.shared");
  a.add(3);
  b.add(4);
  EXPECT_EQ(a.value(), 7u);
  EXPECT_EQ(b.value(), 7u);
  const Snapshot snapshot = Registry::instance().snapshot();
  ASSERT_EQ(snapshot.counters.size(), 1u);
  EXPECT_EQ(snapshot.counters.front().first, "test.counter.shared");
  EXPECT_EQ(snapshot.counters.front().second, 7u);
}

TEST_F(RegistryTest, ConcurrentCounterAddsLoseNothing) {
  EnabledScope scope;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kAddsPerThread = 20000;
  std::atomic<bool> go{false};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&go] {
      // Each thread registers its own handle, exercising concurrent
      // registration of the same name alongside concurrent adds.
      Counter c = Registry::instance().counter("test.counter.concurrent");
      Histogram h = Registry::instance().histogram("test.hist.concurrent");
      while (!go.load()) {
      }
      for (std::uint64_t i = 0; i < kAddsPerThread; ++i) {
        c.add();
        h.record(1.0);
      }
    });
  }
  go.store(true);
  for (auto& w : workers) w.join();
  Counter c = Registry::instance().counter("test.counter.concurrent");
  EXPECT_EQ(c.value(), kThreads * kAddsPerThread);
  Histogram h = Registry::instance().histogram("test.hist.concurrent");
  EXPECT_EQ(h.count(), kThreads * kAddsPerThread);
}

TEST_F(RegistryTest, GaugeTracksLastValueAndRunningMax) {
  EnabledScope scope;
  Gauge g = Registry::instance().gauge("test.gauge.depth");
  g.set(5.0);
  g.set(9.0);
  g.set(2.0);
  EXPECT_DOUBLE_EQ(g.value(), 2.0);
  EXPECT_DOUBLE_EQ(g.max(), 9.0);
  g.record_max(1.0);  // never lowers the max
  EXPECT_DOUBLE_EQ(g.max(), 9.0);
}

TEST_F(RegistryTest, ResetZeroesButKeepsRegistrations) {
  EnabledScope scope;
  Counter c = Registry::instance().counter("test.counter.reset");
  c.add(10);
  Registry::instance().reset();
  EXPECT_EQ(c.value(), 0u);  // same cell, zeroed
  c.add(1);
  EXPECT_EQ(c.value(), 1u);
}

TEST_F(RegistryTest, SnapshotOmitsUntouchedMetrics) {
  EnabledScope scope;
  Counter touched = Registry::instance().counter("test.counter.touched");
  (void)Registry::instance().counter("test.counter.untouched");
  (void)Registry::instance().histogram("test.hist.untouched");
  touched.add();
  const Snapshot snapshot = Registry::instance().snapshot();
  ASSERT_EQ(snapshot.counters.size(), 1u);
  EXPECT_EQ(snapshot.counters.front().first, "test.counter.touched");
  EXPECT_TRUE(snapshot.histograms.empty());
}

// --- Histogram quantile edge cases -----------------------------------

HistogramSnapshot snapshot_of(std::string_view name) {
  const Snapshot snapshot = Registry::instance().snapshot();
  for (const auto& [n, h] : snapshot.histograms) {
    if (n == name) return h;
  }
  return {};
}

TEST_F(RegistryTest, EmptyHistogramQuantilesAreZero) {
  HistogramSnapshot empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_DOUBLE_EQ(empty.quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(empty.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(empty.quantile(1.0), 0.0);
  EXPECT_DOUBLE_EQ(empty.mean(), 0.0);
}

TEST_F(RegistryTest, SingleSampleHistogramReportsThatSampleEverywhere) {
  EnabledScope scope;
  Histogram h = Registry::instance().histogram("test.hist.single");
  h.record(3.25);
  const HistogramSnapshot s = snapshot_of("test.hist.single");
  ASSERT_EQ(s.count, 1u);
  // Interpolation inside the bucket is clamped to the observed range, so
  // a lone sample reports exactly itself at every quantile.
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 3.25);
  EXPECT_DOUBLE_EQ(s.quantile(0.5), 3.25);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 3.25);
  EXPECT_DOUBLE_EQ(s.min, 3.25);
  EXPECT_DOUBLE_EQ(s.max, 3.25);
}

TEST_F(RegistryTest, OverflowBucketQuantileClampsToObservedMax) {
  EnabledScope scope;
  HistogramOptions options;
  options.first_bound = 1.0;
  options.growth = 2.0;
  options.bucket_count = 4;  // underflow, [1,2), [2,4), overflow [4, inf)
  Histogram h = Registry::instance().histogram("test.hist.overflow", options);
  h.record(1e9);
  h.record(2e9);
  const HistogramSnapshot s = snapshot_of("test.hist.overflow");
  ASSERT_EQ(s.count, 2u);
  ASSERT_FALSE(s.buckets.empty());
  EXPECT_EQ(s.buckets.back(), 2u);  // both landed in the overflow bucket
  // The overflow bucket has no finite upper bound; quantiles must stay
  // inside the observed range rather than reporting infinity.
  EXPECT_GE(s.quantile(0.99), s.min);
  EXPECT_LE(s.quantile(0.99), s.max);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 2e9);
}

TEST_F(RegistryTest, UnderflowSamplesLandInBucketZero) {
  EnabledScope scope;
  HistogramOptions options;
  options.first_bound = 1.0;
  options.bucket_count = 4;
  Histogram h = Registry::instance().histogram("test.hist.underflow", options);
  h.record(0.25);
  const HistogramSnapshot s = snapshot_of("test.hist.underflow");
  ASSERT_EQ(s.count, 1u);
  EXPECT_EQ(s.buckets.front(), 1u);
  EXPECT_DOUBLE_EQ(s.quantile(0.5), 0.25);
}

TEST_F(RegistryTest, QuantilesAreMonotoneOnMultiBucketData) {
  EnabledScope scope;
  Histogram h = Registry::instance().histogram("test.hist.monotone");
  for (int i = 1; i <= 1000; ++i) h.record(static_cast<double>(i) * 0.01);
  const HistogramSnapshot s = snapshot_of("test.hist.monotone");
  ASSERT_EQ(s.count, 1000u);
  double previous = s.quantile(0.0);
  for (double q = 0.1; q <= 1.0001; q += 0.1) {
    const double value = s.quantile(q);
    EXPECT_GE(value, previous);
    previous = value;
  }
  EXPECT_NEAR(s.quantile(0.5), 5.0, 2.6);  // coarse buckets, honest range
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 10.0);
}

}  // namespace
}  // namespace lina::obs
