#include "lina/sim/failure_plan.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

namespace lina::sim {
namespace {

TEST(FailurePlanTest, ValidatesWindows) {
  FailurePlan plan;
  EXPECT_THROW(plan.as_outage(1, 100.0, 100.0), std::invalid_argument);
  EXPECT_THROW(plan.as_outage(1, 200.0, 100.0), std::invalid_argument);
  EXPECT_THROW(plan.as_outage(1, -5.0, 100.0), std::invalid_argument);
  EXPECT_THROW(plan.link_cut(3, 3, 0.0, 100.0), std::invalid_argument);
  EXPECT_THROW(plan.update_loss(1.5, 0.0, 100.0), std::invalid_argument);
  EXPECT_THROW(plan.update_loss(-0.1, 0.0, 100.0), std::invalid_argument);
  EXPECT_TRUE(plan.empty());  // nothing invalid was recorded
}

TEST(FailurePlanTest, RejectsNonFiniteWindowsAndNanProbability) {
  // A NaN bound passes both window comparisons and would reach the
  // boundary sort; a NaN probability passes both range comparisons.
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  FailurePlan plan;
  EXPECT_THROW(plan.as_outage(1, kNan, 100.0), std::invalid_argument);
  EXPECT_THROW(plan.as_outage(1, 0.0, kNan), std::invalid_argument);
  EXPECT_THROW(plan.link_cut(1, 2, kNan, kNan), std::invalid_argument);
  EXPECT_THROW(plan.as_outage(1, 0.0, kInf), std::invalid_argument);
  EXPECT_THROW(plan.resolver_crash(1, -kInf, 100.0), std::invalid_argument);
  EXPECT_THROW(plan.update_loss(kNan, 0.0, 100.0), std::invalid_argument);
  EXPECT_TRUE(plan.empty());  // nothing invalid was recorded
  EXPECT_EQ(plan.data_plane_epoch(50.0), 0u);
}

TEST(FailurePlanTest, WindowSemantics) {
  FailurePlan plan;
  plan.as_outage(7, 100.0, 200.0);
  EXPECT_FALSE(plan.as_down(7, 99.9));
  EXPECT_TRUE(plan.as_down(7, 100.0));  // start inclusive
  EXPECT_TRUE(plan.as_down(7, 199.9));
  EXPECT_FALSE(plan.as_down(7, 200.0));  // end exclusive: repair instant
  EXPECT_FALSE(plan.as_down(8, 150.0));
  EXPECT_TRUE(plan.any_active(150.0));
  EXPECT_TRUE(plan.data_plane_impaired(150.0));
  EXPECT_FALSE(plan.data_plane_impaired(250.0));
}

TEST(FailurePlanTest, LinkCutIsBidirectional) {
  FailurePlan plan;
  plan.link_cut(3, 9, 0.0, 50.0);
  EXPECT_TRUE(plan.link_down(3, 9, 10.0));
  EXPECT_TRUE(plan.link_down(9, 3, 10.0));
  EXPECT_FALSE(plan.link_down(3, 8, 10.0));
  EXPECT_FALSE(plan.link_down(3, 9, 60.0));
}

TEST(FailurePlanTest, AsOutageImpliesProcessCrashes) {
  FailurePlan plan;
  plan.as_outage(5, 0.0, 100.0);
  EXPECT_TRUE(plan.home_agent_down(5, 50.0));
  EXPECT_TRUE(plan.resolver_down(5, 50.0));

  FailurePlan crash_only;
  crash_only.home_agent_crash(5, 0.0, 100.0);
  EXPECT_TRUE(crash_only.home_agent_down(5, 50.0));
  EXPECT_FALSE(crash_only.resolver_down(5, 50.0));
  EXPECT_FALSE(crash_only.as_down(5, 50.0));  // the AS still forwards
  EXPECT_FALSE(crash_only.data_plane_impaired(50.0));
  EXPECT_TRUE(crash_only.any_active(50.0));
}

TEST(FailurePlanTest, MessageLossCoinIsDeterministicAndSeeded) {
  FailurePlan a(42), b(42), c(7);
  for (FailurePlan* plan : {&a, &b, &c}) plan->update_loss(0.5, 0.0, 1000.0);
  bool any_lost = false, any_kept = false, differs_across_seeds = false;
  for (std::uint64_t id = 0; id < 200; ++id) {
    const bool lost = a.control_message_lost(id, 500.0);
    EXPECT_EQ(lost, b.control_message_lost(id, 500.0));  // same seed agrees
    if (lost != c.control_message_lost(id, 500.0)) differs_across_seeds = true;
    any_lost |= lost;
    any_kept |= !lost;
    EXPECT_FALSE(a.control_message_lost(id, 1500.0));  // outside the window
  }
  EXPECT_TRUE(any_lost);
  EXPECT_TRUE(any_kept);
  EXPECT_TRUE(differs_across_seeds);
}

TEST(FailurePlanTest, MessageLossExtremes) {
  FailurePlan certain(1), never(1);
  certain.update_loss(1.0, 0.0, 100.0);
  never.update_loss(0.0, 0.0, 100.0);
  for (std::uint64_t id = 0; id < 50; ++id) {
    EXPECT_TRUE(certain.control_message_lost(id, 50.0));
    EXPECT_FALSE(never.control_message_lost(id, 50.0));
  }
}

TEST(FailurePlanTest, EpochsTrackDataPlaneBoundaries) {
  FailurePlan plan;
  plan.as_outage(1, 100.0, 200.0);
  plan.link_cut(2, 3, 150.0, 300.0);
  plan.resolver_crash(4, 50.0, 400.0);  // control-plane: no epoch boundary
  const std::size_t before = plan.data_plane_epoch(50.0);
  const std::size_t first = plan.data_plane_epoch(120.0);
  const std::size_t both = plan.data_plane_epoch(180.0);
  const std::size_t second_only = plan.data_plane_epoch(250.0);
  const std::size_t after = plan.data_plane_epoch(350.0);
  EXPECT_NE(before, first);
  EXPECT_NE(first, both);
  EXPECT_NE(both, second_only);
  EXPECT_NE(second_only, after);
}

TEST(FailurePlanTest, RepairTimesSortedDistinct) {
  FailurePlan plan;
  plan.as_outage(1, 100.0, 500.0);
  plan.link_cut(2, 3, 0.0, 200.0);
  plan.home_agent_crash(4, 50.0, 200.0);  // duplicate repair instant
  const auto repairs = plan.repair_times();
  ASSERT_EQ(repairs.size(), 2u);
  EXPECT_DOUBLE_EQ(repairs[0], 200.0);
  EXPECT_DOUBLE_EQ(repairs[1], 500.0);
}

TEST(FailurePlanTest, StampChangesOnMutation) {
  FailurePlan plan;
  const auto s0 = plan.stamp();
  plan.as_outage(1, 0.0, 10.0);
  const auto s1 = plan.stamp();
  EXPECT_NE(s0, s1);
  FailurePlan other;
  other.as_outage(1, 0.0, 10.0);
  EXPECT_NE(other.stamp(), s1);  // distinct plans never share a stamp
}

TEST(FailurePlanTest, KindNamesDistinct) {
  EXPECT_NE(failure_kind_name(FailureKind::kAsOutage),
            failure_kind_name(FailureKind::kLinkCut));
  EXPECT_NE(failure_kind_name(FailureKind::kHomeAgentCrash),
            failure_kind_name(FailureKind::kResolverCrash));
}

}  // namespace
}  // namespace lina::sim
