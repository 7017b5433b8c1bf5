#include "lina/mobility/device_workload.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "lina/core/extent.hpp"

namespace lina::mobility {
namespace {

const routing::SyntheticInternet& internet() {
  static const routing::SyntheticInternet instance = [] {
    routing::SyntheticInternetConfig config;
    config.topology.tier1_count = 8;
    config.topology.tier2_count = 30;
    config.topology.stub_count = 250;
    return routing::SyntheticInternet(config);
  }();
  return instance;
}

DeviceWorkloadConfig small_config() {
  DeviceWorkloadConfig config;
  config.user_count = 60;
  config.days = 7;
  return config;
}

TEST(DeviceWorkloadTest, GeneratesRequestedPopulation) {
  const DeviceWorkloadGenerator gen(internet(), small_config());
  const auto traces = gen.generate();
  ASSERT_EQ(traces.size(), 60u);
  for (std::size_t u = 0; u < traces.size(); ++u) {
    EXPECT_EQ(traces[u].user_id(), u);
    EXPECT_EQ(traces[u].day_count(), 7u);
    EXPECT_FALSE(traces[u].visits().empty());
  }
}

TEST(DeviceWorkloadTest, TracesCoverFullPeriodContiguously) {
  const DeviceWorkloadGenerator gen(internet(), small_config());
  const DeviceTrace trace = gen.generate_user(3);
  double clock = 0.0;
  for (const DeviceVisit& visit : trace.visits()) {
    EXPECT_NEAR(visit.start_hour, clock, 1e-6);
    EXPECT_GT(visit.duration_hours, 0.0);
    clock = visit.start_hour + visit.duration_hours;
  }
  EXPECT_NEAR(clock, 7.0 * 24.0, 1e-6);
}

TEST(DeviceWorkloadTest, VisitMetadataConsistent) {
  // Every visit of the workload: the generator keeps the prefix each
  // address was drawn from, which must be the announced prefix covering it.
  const DeviceWorkloadGenerator gen(internet(), small_config());
  for (const DeviceTrace& trace : gen.generate()) {
    for (const DeviceVisit& visit : trace.visits()) {
      ASSERT_EQ(internet().owner_of(visit.address), visit.as)
          << "user " << trace.user_id();
      ASSERT_TRUE(visit.prefix.contains(visit.address));
      ASSERT_EQ(internet().prefix_of(visit.address), visit.prefix)
          << "user " << trace.user_id();
    }
  }
}

TEST(DeviceWorkloadTest, DeterministicPerUser) {
  const DeviceWorkloadGenerator gen(internet(), small_config());
  const DeviceTrace a = gen.generate_user(11);
  const DeviceTrace b = gen.generate_user(11);
  ASSERT_EQ(a.visits().size(), b.visits().size());
  for (std::size_t i = 0; i < a.visits().size(); ++i) {
    EXPECT_EQ(a.visits()[i].address, b.visits()[i].address);
    EXPECT_DOUBLE_EQ(a.visits()[i].start_hour, b.visits()[i].start_hour);
  }
}

TEST(DeviceWorkloadTest, DifferentUsersDiffer) {
  const DeviceWorkloadGenerator gen(internet(), small_config());
  const DeviceTrace a = gen.generate_user(1);
  const DeviceTrace b = gen.generate_user(2);
  EXPECT_NE(a.visits().front().address, b.visits().front().address);
}

TEST(DeviceWorkloadTest, SeedChangesPopulation) {
  DeviceWorkloadConfig config = small_config();
  config.seed = 1;
  const DeviceWorkloadGenerator gen1(internet(), config);
  config.seed = 2;
  const DeviceWorkloadGenerator gen2(internet(), config);
  EXPECT_NE(gen1.generate_user(0).visits().front().address,
            gen2.generate_user(0).visits().front().address);
}

TEST(DeviceWorkloadTest, UsersStartAtHomeAs) {
  const DeviceWorkloadGenerator gen(internet(), small_config());
  // The first visit is the home attachment; for most users the dominant AS
  // over the whole trace is that same home AS (highly mobile users can tip
  // toward work).
  int matches = 0;
  const int sample = 30;
  for (std::uint32_t u = 0; u < sample; ++u) {
    const DeviceTrace trace = gen.generate_user(u);
    if (trace.visits().front().as == trace.dominant_as()) ++matches;
  }
  EXPECT_GT(matches, sample * 2 / 3);
}

// Calibration anchors from the paper (§4, §6.1, Figures 6/7/9), checked on
// the full 372-user population with loose tolerances.
class DeviceWorkloadCalibrationTest : public ::testing::Test {
 protected:
  static const core::ExtentOfMobility& extent() {
    static const core::ExtentOfMobility result = [] {
      DeviceWorkloadConfig config;  // paper-calibrated defaults
      config.days = 21;
      const DeviceWorkloadGenerator gen(internet(), config);
      const auto traces = gen.generate();
      return core::analyze_extent(traces);
    }();
    return result;
  }
};

TEST_F(DeviceWorkloadCalibrationTest, Figure6MedianDistinctLocations) {
  // Paper: medians 3 IPs, 2 prefixes, 2 ASes per day.
  EXPECT_NEAR(extent().ips_per_day.quantile(0.5), 3.0, 1.0);
  EXPECT_NEAR(extent().prefixes_per_day.quantile(0.5), 2.0, 1.0);
  EXPECT_NEAR(extent().ases_per_day.quantile(0.5), 2.0, 0.75);
}

TEST_F(DeviceWorkloadCalibrationTest, Figure7TransitionMedians) {
  // Paper: median ~3 IP transitions and ~1 AS transition per day.
  EXPECT_NEAR(extent().ip_transitions_per_day.quantile(0.5), 3.0, 1.0);
  EXPECT_NEAR(extent().as_transitions_per_day.quantile(0.5), 1.0, 0.75);
}

TEST_F(DeviceWorkloadCalibrationTest, Figure7HeavyTail) {
  // Paper: >20% of users change IP address more than 10 times a day;
  // maximum average AS transition rate ~31.6/day.
  EXPECT_GT(extent().ip_transitions_per_day.fraction_above(10.0), 0.12);
  EXPECT_GT(extent().as_transitions_per_day.max(), 15.0);
  EXPECT_LT(extent().as_transitions_per_day.max(), 50.0);
}

TEST_F(DeviceWorkloadCalibrationTest, Figure9DominantLocation) {
  // Paper: a median-ish user spends ~70% of the day at the dominant IP and
  // ~85% at the dominant AS; the AS share dominates the IP share.
  const double ip_share = extent().dominant_ip_share.quantile(0.5);
  const double as_share = extent().dominant_as_share.quantile(0.5);
  EXPECT_NEAR(ip_share, 0.68, 0.12);
  EXPECT_NEAR(as_share, 0.88, 0.08);
  EXPECT_GT(as_share, ip_share);
}

TEST_F(DeviceWorkloadCalibrationTest, OrderingInvariants) {
  // Distinct prefixes <= distinct IPs; distinct ASes <= prefixes; same for
  // transitions — at every quantile.
  for (const double q : {0.1, 0.25, 0.5, 0.75, 0.9}) {
    EXPECT_LE(extent().prefixes_per_day.quantile(q),
              extent().ips_per_day.quantile(q) + 1e-9);
    EXPECT_LE(extent().ases_per_day.quantile(q),
              extent().prefixes_per_day.quantile(q) + 1e-9);
    EXPECT_LE(extent().as_transitions_per_day.quantile(q),
              extent().ip_transitions_per_day.quantile(q) + 1e-9);
  }
}

}  // namespace
}  // namespace lina::mobility
