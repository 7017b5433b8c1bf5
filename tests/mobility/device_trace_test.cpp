#include "lina/mobility/device_trace.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <string>

namespace lina::mobility {
namespace {

using net::Ipv4Address;
using net::Prefix;

DeviceVisit visit(double start, double duration, const char* addr,
                  const char* prefix, topology::AsId as,
                  bool cellular = false) {
  return DeviceVisit{start, duration, Ipv4Address::parse(addr),
                     Prefix::parse(prefix), as, cellular};
}

// A two-day trace: home (AS 1) -> cellular (AS 2) -> work (AS 3) -> home,
// crossing midnight inside the last home visit.
DeviceTrace make_trace() {
  DeviceTrace trace(7, 2);
  trace.append(visit(0.0, 8.0, "1.0.0.1", "1.0.0.0/16", 1));
  trace.append(visit(8.0, 1.0, "2.0.0.1", "2.0.0.0/16", 2, true));
  trace.append(visit(9.0, 8.0, "3.0.0.1", "3.0.0.0/16", 3));
  trace.append(visit(17.0, 31.0, "1.0.0.1", "1.0.0.0/16", 1));
  return trace;
}

TEST(DeviceTraceTest, AppendEnforcesContiguity) {
  DeviceTrace trace(1, 1);
  trace.append(visit(0.0, 5.0, "1.0.0.1", "1.0.0.0/16", 1));
  EXPECT_THROW(trace.append(visit(6.0, 1.0, "1.0.0.2", "1.0.0.0/16", 1)),
               std::invalid_argument);
  EXPECT_THROW(trace.append(visit(4.0, 1.0, "1.0.0.2", "1.0.0.0/16", 1)),
               std::invalid_argument);
  trace.append(visit(5.0, 1.0, "1.0.0.2", "1.0.0.0/16", 1));
  EXPECT_EQ(trace.visits().size(), 2u);
}

TEST(DeviceTraceTest, AppendRejectsBadFirstVisit) {
  DeviceTrace trace(1, 1);
  EXPECT_THROW(trace.append(visit(1.0, 5.0, "1.0.0.1", "1.0.0.0/16", 1)),
               std::invalid_argument);
  EXPECT_THROW(trace.append(visit(0.0, 0.0, "1.0.0.1", "1.0.0.0/16", 1)),
               std::invalid_argument);
}

/// The message of the std::invalid_argument `append` throws, or "" when
/// it throws nothing.
std::string append_error(DeviceTrace& trace, const DeviceVisit& v) {
  try {
    trace.append(v);
  } catch (const std::invalid_argument& error) {
    return error.what();
  }
  return "";
}

TEST(DeviceTraceTest, AppendRejectsNonFiniteStart) {
  // NaN fails no ordered comparison, so without the finiteness check it
  // would pass the gap test and reach the shard writer's sort.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  DeviceTrace trace(1, 1);
  for (const double start : {nan, inf}) {
    EXPECT_NE(append_error(trace, visit(start, 1.0, "1.0.0.1", "1.0.0.0/16",
                                        1))
                  .find("start_hour"),
              std::string::npos);
  }
  trace.append(visit(0.0, 5.0, "1.0.0.1", "1.0.0.0/16", 1));
  EXPECT_NE(append_error(trace, visit(nan, 1.0, "1.0.0.2", "1.0.0.0/16", 1))
                .find("start_hour"),
            std::string::npos);
  EXPECT_EQ(trace.visits().size(), 1u);
}

TEST(DeviceTraceTest, AppendRejectsNonFiniteDuration) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  DeviceTrace trace(1, 1);
  for (const double duration : {nan, inf}) {
    EXPECT_NE(append_error(trace, visit(0.0, duration, "1.0.0.1",
                                        "1.0.0.0/16", 1))
                  .find("duration_hours"),
              std::string::npos);
  }
  EXPECT_TRUE(trace.visits().empty());
}

TEST(DeviceTraceTest, DayStatsCountsDistinctLocations) {
  const DeviceTrace trace = make_trace();
  const DayStats day0 = trace.day_stats(0);
  EXPECT_EQ(day0.distinct_ips, 3u);
  EXPECT_EQ(day0.distinct_prefixes, 3u);
  EXPECT_EQ(day0.distinct_ases, 3u);
  EXPECT_EQ(day0.ip_transitions, 3u);
  EXPECT_EQ(day0.as_transitions, 3u);

  const DayStats day1 = trace.day_stats(1);
  EXPECT_EQ(day1.distinct_ips, 1u);
  EXPECT_EQ(day1.ip_transitions, 0u);
}

TEST(DeviceTraceTest, DominantShares) {
  const DeviceTrace trace = make_trace();
  const DayStats day0 = trace.day_stats(0);
  // Home IP holds 8 + 7 = 15 of 24 hours of day 0.
  EXPECT_NEAR(day0.dominant_ip_fraction, 15.0 / 24.0, 1e-9);
  EXPECT_NEAR(day0.dominant_as_fraction, 15.0 / 24.0, 1e-9);
  const DayStats day1 = trace.day_stats(1);
  EXPECT_NEAR(day1.dominant_ip_fraction, 1.0, 1e-9);
}

TEST(DeviceTraceTest, SameAddressBoundaryIsNoTransition) {
  DeviceTrace trace(1, 1);
  trace.append(visit(0.0, 5.0, "1.0.0.1", "1.0.0.0/16", 1));
  trace.append(visit(5.0, 19.0, "1.0.0.1", "1.0.0.0/16", 1));
  const DayStats stats = trace.day_stats(0);
  EXPECT_EQ(stats.ip_transitions, 0u);
  EXPECT_EQ(stats.distinct_ips, 1u);
}

TEST(DeviceTraceTest, PrefixTransitionWithinAs) {
  DeviceTrace trace(1, 1);
  trace.append(visit(0.0, 5.0, "1.0.0.1", "1.0.0.0/16", 1));
  trace.append(visit(5.0, 19.0, "1.1.0.1", "1.1.0.0/16", 1));
  const DayStats stats = trace.day_stats(0);
  EXPECT_EQ(stats.ip_transitions, 1u);
  EXPECT_EQ(stats.prefix_transitions, 1u);
  EXPECT_EQ(stats.as_transitions, 0u);
  EXPECT_EQ(stats.distinct_ases, 1u);
}

TEST(DeviceTraceTest, EventsOnlyAtAddressChanges) {
  const DeviceTrace trace = make_trace();
  const auto events = trace.events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].from, Ipv4Address::parse("1.0.0.1"));
  EXPECT_EQ(events[0].to, Ipv4Address::parse("2.0.0.1"));
  EXPECT_DOUBLE_EQ(events[0].hour, 8.0);
  EXPECT_EQ(events[2].to, Ipv4Address::parse("1.0.0.1"));
}

TEST(DeviceTraceTest, DominantAsAndAddress) {
  const DeviceTrace trace = make_trace();
  EXPECT_EQ(trace.dominant_as(), 1u);
  EXPECT_EQ(trace.dominant_address(), Ipv4Address::parse("1.0.0.1"));
  // Home AS holds 39 of 48 hours.
  EXPECT_NEAR(trace.dominant_as_share(), 39.0 / 48.0, 1e-9);
}

TEST(DeviceTraceTest, EmptyTraceThrows) {
  const DeviceTrace trace(1, 1);
  EXPECT_THROW((void)trace.dominant_as(), std::logic_error);
  EXPECT_THROW((void)trace.dominant_address(), std::logic_error);
  EXPECT_THROW((void)trace.dominant_as_share(), std::logic_error);
  EXPECT_TRUE(trace.events().empty());
}

TEST(DeviceTraceTest, DayStatsOutOfRange) {
  const DeviceTrace trace = make_trace();
  EXPECT_THROW((void)trace.day_stats(2), std::out_of_range);
}

TEST(DeviceTraceTest, MidnightSpanningVisitCountsBothDays) {
  const DeviceTrace trace = make_trace();
  // The last visit spans 17h..48h; day 1 sees it for all 24 hours.
  const DayStats day1 = trace.day_stats(1);
  EXPECT_EQ(day1.distinct_ases, 1u);
  EXPECT_NEAR(day1.dominant_as_fraction, 1.0, 1e-9);
}

}  // namespace
}  // namespace lina::mobility
