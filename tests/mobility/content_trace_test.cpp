#include "lina/mobility/content_trace.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace lina::mobility {
namespace {

using net::Ipv4Address;

std::vector<Ipv4Address> addrs(std::initializer_list<const char*> list) {
  std::vector<Ipv4Address> out;
  for (const char* a : list) out.push_back(Ipv4Address::parse(a));
  return out;
}

ContentTrace make_trace() {
  return ContentTrace(names::ContentName::from_dns("a.example.com"),
                      /*popular=*/true, /*cdn_backed=*/false,
                      /*day_count=*/2);
}

TEST(ContentTraceTest, FirstSnapshotMustBeAtHourZero) {
  ContentTrace trace = make_trace();
  EXPECT_THROW(trace.observe(5.0, addrs({"1.0.0.1"})), std::invalid_argument);
  trace.observe(0.0, addrs({"1.0.0.1"}));
  EXPECT_EQ(trace.snapshots().size(), 1u);
}

TEST(ContentTraceTest, UnchangedSetIsNoEvent) {
  ContentTrace trace = make_trace();
  trace.observe(0.0, addrs({"1.0.0.1", "2.0.0.1"}));
  trace.observe(1.0, addrs({"2.0.0.1", "1.0.0.1"}));  // same set, reordered
  trace.observe(2.0, addrs({"1.0.0.1", "2.0.0.1", "1.0.0.1"}));  // dup
  EXPECT_EQ(trace.snapshots().size(), 1u);
  EXPECT_TRUE(trace.events().empty());
}

TEST(ContentTraceTest, ChangeRecordsEvent) {
  ContentTrace trace = make_trace();
  trace.observe(0.0, addrs({"1.0.0.1"}));
  trace.observe(3.0, addrs({"1.0.0.1", "2.0.0.1"}));
  trace.observe(5.0, addrs({"2.0.0.1"}));
  ASSERT_EQ(trace.snapshots().size(), 3u);
  const auto events = trace.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_DOUBLE_EQ(events[0].hour, 3.0);
  EXPECT_EQ(events[0].before.size(), 1u);
  EXPECT_EQ(events[0].after.size(), 2u);
  EXPECT_DOUBLE_EQ(events[1].hour, 5.0);
}

TEST(ContentTraceTest, TimeMustNotGoBackward) {
  ContentTrace trace = make_trace();
  trace.observe(0.0, addrs({"1.0.0.1"}));
  trace.observe(5.0, addrs({"2.0.0.1"}));
  EXPECT_THROW(trace.observe(4.0, addrs({"3.0.0.1"})), std::invalid_argument);
}

TEST(ContentTraceTest, NonFiniteHoursRejected) {
  ContentTrace trace = make_trace();
  EXPECT_THROW(trace.observe(std::nan(""), addrs({"1.0.0.1"})),
               std::invalid_argument);
  trace.observe(0.0, addrs({"1.0.0.1"}));
  for (const double hour : {std::nan(""), HUGE_VAL, -HUGE_VAL}) {
    EXPECT_THROW(trace.observe(hour, addrs({"2.0.0.1"})),
                 std::invalid_argument)
        << hour;
  }
  EXPECT_EQ(trace.snapshots().size(), 1u);
  EXPECT_TRUE(trace.events().empty());
}

TEST(ContentTraceTest, EmptySetsAllowed) {
  ContentTrace trace = make_trace();
  trace.observe(0.0, {});
  trace.observe(1.0, addrs({"1.0.0.1"}));
  trace.observe(2.0, {});
  EXPECT_EQ(trace.snapshots().size(), 3u);
  EXPECT_TRUE(trace.final_addresses().empty());
}

TEST(ContentTraceTest, EventsPerDayAveragesOverDays) {
  ContentTrace trace = make_trace();
  trace.observe(0.0, addrs({"1.0.0.1"}));
  trace.observe(2.0, addrs({"2.0.0.1"}));   // day 0
  trace.observe(23.0, addrs({"3.0.0.1"}));  // day 0
  trace.observe(25.0, addrs({"4.0.0.1"}));  // day 1
  EXPECT_EQ(trace.events().size(), 3u);
  EXPECT_DOUBLE_EQ(trace.events_per_day(), 1.5);
}

TEST(ContentTraceTest, EventsPerDayOfQuietTrace) {
  ContentTrace trace = make_trace();
  trace.observe(0.0, addrs({"1.0.0.1"}));
  EXPECT_DOUBLE_EQ(trace.events_per_day(), 0.0);
}

TEST(ContentTraceTest, FinalAddressesSortedDeduplicated) {
  ContentTrace trace = make_trace();
  trace.observe(0.0, addrs({"9.0.0.1", "1.0.0.1", "9.0.0.1"}));
  const auto final_set = trace.final_addresses();
  ASSERT_EQ(final_set.size(), 2u);
  EXPECT_EQ(final_set[0], Ipv4Address::parse("1.0.0.1"));
  EXPECT_EQ(final_set[1], Ipv4Address::parse("9.0.0.1"));
}

TEST(ContentTraceTest, MetadataAccessors) {
  const ContentTrace trace(names::ContentName::from_dns("x.net"), false,
                           true, 21);
  EXPECT_EQ(trace.name().to_dns(), "x.net");
  EXPECT_FALSE(trace.popular());
  EXPECT_TRUE(trace.cdn_backed());
  EXPECT_EQ(trace.day_count(), 21u);
}

}  // namespace
}  // namespace lina::mobility
