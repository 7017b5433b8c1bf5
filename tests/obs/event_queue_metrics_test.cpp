// sim::EventQueue observability: a constant-rate source feeds the
// `lina.sim.event_queue.*` metrics exactly as the n schedule() calls it
// replaces (scheduled / executed counts, the depth gauge and its
// maximum, every dwell sample), and pending() counts every instance.
// Runs under the `obs` ctest label.

#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "lina/obs/registry.hpp"
#include "lina/sim/event_queue.hpp"

namespace lina::sim {
namespace {

constexpr double kFirst = 2.5;
constexpr double kInterval = 0.1;  // drifts under accumulation
constexpr double kEnd = 9.0;

/// The event-queue metrics of one run, with pending() sampled whenever
/// an event fires.
struct QueueRecord {
  obs::Snapshot metrics;
  std::vector<std::size_t> pending;
};

/// A one-shot at 1 ms creates the source (so its instances dwell since
/// 1 ms) and one more event; `create_source` decides how.
template <class CreateSource>
QueueRecord record_run(CreateSource create_source) {
  obs::Registry::instance().reset();
  obs::EnabledScope scope;
  EventQueue queue;
  QueueRecord record;
  const auto sample = [&] { record.pending.push_back(queue.pending()); };
  queue.schedule(1.0, [&] {
    sample();
    create_source(queue, sample);
    queue.schedule_in(3.0, sample);
  });
  record.pending.push_back(queue.pending());
  queue.run();
  record.metrics = obs::Registry::instance().snapshot();
  return record;
}

class EventQueueMetricsTest : public ::testing::Test {
 protected:
  void TearDown() override {
    obs::Registry::instance().enable(false);
    obs::Registry::instance().reset();
  }
};

template <class Named>
std::vector<Named> queue_metrics(const std::vector<Named>& all) {
  std::vector<Named> kept;
  for (const Named& metric : all) {
    if (metric.first.rfind("lina.sim.event_queue.", 0) == 0)
      kept.push_back(metric);
  }
  return kept;
}

TEST_F(EventQueueMetricsTest, PeriodicSourceCountsLikeSeparateSchedules) {
  const QueueRecord every =
      record_run([](EventQueue& queue, const auto& sample) {
        queue.schedule_every(kFirst, kInterval, kEnd, sample);
      });
  const QueueRecord separate =
      record_run([](EventQueue& queue, const auto& sample) {
        for (double t = kFirst; t < kEnd; t += kInterval)
          queue.schedule(t, sample);
      });
  std::size_t instances = 0;
  double last = 0.0;
  for (double t = kFirst; t < kEnd; t += kInterval, ++instances) last = t;

  EXPECT_EQ(every.pending, separate.pending);
  EXPECT_EQ(queue_metrics(every.metrics.counters),
            queue_metrics(separate.metrics.counters));
  EXPECT_EQ(queue_metrics(every.metrics.gauges),
            queue_metrics(separate.metrics.gauges));
  const auto every_histograms = queue_metrics(every.metrics.histograms);
  const auto separate_histograms = queue_metrics(separate.metrics.histograms);
  ASSERT_EQ(every_histograms.size(), 1u);
  ASSERT_EQ(separate_histograms.size(), 1u);
  const obs::HistogramSnapshot& a = every_histograms.front().second;
  const obs::HistogramSnapshot& b = separate_histograms.front().second;
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.sum, b.sum);
  EXPECT_EQ(a.min, b.min);
  EXPECT_EQ(a.max, b.max);
  EXPECT_EQ(a.buckets, b.buckets);

  // And the counts are the instances: 1 + n + 1 events scheduled and
  // run, with n + 1 pending right after the source was created.
  const auto counters = queue_metrics(every.metrics.counters);
  ASSERT_EQ(counters.size(), 2u);
  EXPECT_EQ(counters[0].first, "lina.sim.event_queue.executed");
  EXPECT_EQ(counters[0].second, instances + 2);
  EXPECT_EQ(counters[1].first, "lina.sim.event_queue.scheduled");
  EXPECT_EQ(counters[1].second, instances + 2);
  const auto gauges = queue_metrics(every.metrics.gauges);
  ASSERT_EQ(gauges.size(), 1u);
  EXPECT_EQ(gauges.front().second.second,
            static_cast<double>(instances + 1));
  // Each instance dwells from its creation at 1 ms; the one-shot at 1 ms
  // dwelt 1 ms.
  EXPECT_EQ(a.min, 1.0);
  EXPECT_EQ(a.max, last - 1.0);
}

}  // namespace
}  // namespace lina::sim
