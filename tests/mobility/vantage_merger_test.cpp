#include "lina/mobility/vantage_merger.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "../support/reference_merger.hpp"

namespace lina::mobility {
namespace {

using topology::GeoPoint;

/// Slot i served from site i.
std::vector<std::size_t> identity_slots(std::size_t n) {
  std::vector<std::size_t> slots(n);
  std::iota(slots.begin(), slots.end(), 0);
  return slots;
}

/// Indices of the set bits.
std::vector<std::size_t> set_bits(const std::vector<bool>& bits) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < bits.size(); ++i) {
    if (bits[i]) out.push_back(i);
  }
  return out;
}

TEST(VantagePointMergerTest, RejectsDegenerateConfigs) {
  const std::vector<GeoPoint> none;
  const std::vector<GeoPoint> one{{0, 0}};
  EXPECT_THROW(VantagePointMerger(none, one, 3), std::invalid_argument);
  EXPECT_THROW(VantagePointMerger(one, one, 0), std::invalid_argument);
  const VantagePointMerger merger(one, one, 1);
  const std::vector<std::size_t> unknown{1};
  EXPECT_THROW((void)merger.visible_sites(unknown), std::out_of_range);
  EXPECT_THROW((void)merger.sites_seen_by(0, unknown), std::out_of_range);
}

TEST(VantagePointMergerTest, SmallReplicaSetsFullyVisible) {
  const std::vector<GeoPoint> vantages{{0, 0}};
  const std::vector<GeoPoint> sites{{10, 10}, {20, 20}};
  const VantagePointMerger merger(vantages, sites, 3);
  const auto visible = merger.visible_sites(identity_slots(2));
  EXPECT_EQ(set_bits(visible), (std::vector<std::size_t>{0, 1}));
}

TEST(VantagePointMergerTest, SingleVantageSeesOnlyNearest) {
  const std::vector<GeoPoint> vantages{{0, 0}};
  const std::vector<GeoPoint> sites{{1, 1}, {50, 50}, {2, 2}, {60, 60}};
  const VantagePointMerger merger(vantages, sites, 2);
  const auto visible = merger.visible_sites(identity_slots(4));
  EXPECT_EQ(visible, (std::vector<bool>{true, false, true, false}));
}

TEST(VantagePointMergerTest, MergedViewIsUnionOfVantages) {
  // Two far-apart vantages each see their own nearby replicas.
  const std::vector<GeoPoint> vantages{{0, 0}, {0, 179}};
  const std::vector<GeoPoint> sites{{0, 1}, {0, 178}, {45, 90}};
  const VantagePointMerger merger(vantages, sites, 1);
  const auto visible = merger.visible_sites(identity_slots(3));
  EXPECT_EQ(set_bits(visible), (std::vector<std::size_t>{0, 1}));
}

TEST(VantagePointMergerTest, FarReplicaInvisible) {
  // One vantage, k=1: only the single closest replica is observed — the
  // partial-view artifact of the measurement methodology (§7.1).
  const std::vector<GeoPoint> vantages{{0, 0}};
  const std::vector<GeoPoint> sites{{1, 1}, {80, 80}};
  const VantagePointMerger merger(vantages, sites, 1);
  const auto visible = merger.visible_sites(identity_slots(2));
  EXPECT_EQ(set_bits(visible), (std::vector<std::size_t>{0}));
}

TEST(VantagePointMergerTest, SitesSeenByIsSortedAndBounded) {
  const std::vector<GeoPoint> vantages{{0, 0}, {10, 10}};
  const std::vector<GeoPoint> sites{{5, 5}, {1, 1}, {2, 2}, {3, 3}};
  const VantagePointMerger merger(vantages, sites, 2);
  const auto seen = merger.sites_seen_by(0, identity_slots(4));
  EXPECT_EQ(seen, (std::vector<std::size_t>{1, 2}));
  EXPECT_THROW((void)merger.sites_seen_by(7, identity_slots(4)),
               std::out_of_range);
}

TEST(VantagePointMergerTest, SlotsIndexSitesAndTiesGoToLowerSlot) {
  // Slots name sites, in any order and with repeats; equidistant slots
  // are taken in slot order.
  const std::vector<GeoPoint> vantages{{0, 0}};
  const std::vector<GeoPoint> sites{{0, 40}, {0, 1}, {0, -1}};
  const VantagePointMerger merger(vantages, sites, 2);
  // Sites 1 and 2 are mirrored about the vantage: exact ties.
  const std::vector<std::size_t> slots{0, 2, 1, 1};
  EXPECT_EQ(merger.sites_seen_by(0, slots), (std::vector<std::size_t>{1, 2}));
  EXPECT_EQ(merger.visible_sites(slots),
            (std::vector<bool>{false, true, true, false}));
}

TEST(VantagePointMergerTest, MatchesSortReferenceWithTies) {
  // Mirrored sites about the prime meridian are exactly equidistant from
  // every vantage on it, so the (distance, slot) tie-break decides.
  ASSERT_EQ(topology::great_circle_km({10, 0}, {20, 33.3}),
            topology::great_circle_km({10, 0}, {20, -33.3}));
  stats::Rng rng(2024);
  std::size_t boundary_ties = 0;
  for (int trial = 0; trial < 400; ++trial) {
    std::vector<GeoPoint> sites;
    const std::size_t base = 1 + rng.index(12);
    for (std::size_t i = 0; i < base; ++i) {
      sites.push_back({rng.uniform(-60.0, 60.0), rng.uniform(-180.0, 180.0)});
    }
    for (std::size_t i = 0; i < base; ++i) {
      const GeoPoint p = sites[i];
      if (rng.chance(0.3)) sites.push_back(p);
      if (rng.chance(0.5)) sites.push_back({p.latitude_deg, -p.longitude_deg});
    }
    std::vector<GeoPoint> vantages;
    const std::size_t vantage_count = 1 + rng.index(6);
    for (std::size_t v = 0; v < vantage_count; ++v) {
      const double u = rng.uniform();
      if (u < 0.4) {
        vantages.push_back({rng.uniform(-60.0, 60.0), 0.0});
      } else if (u < 0.6) {
        vantages.push_back(sites[rng.index(sites.size())]);
      } else {
        vantages.push_back(
            {rng.uniform(-60.0, 60.0), rng.uniform(-180.0, 180.0)});
      }
    }
    // A site may serve several slots, as a repeated PoP would.
    std::vector<std::size_t> slot_sites(rng.index(2 * sites.size() + 1));
    std::vector<GeoPoint> slot_points;
    for (std::size_t& site : slot_sites) {
      site = rng.index(sites.size());
      slot_points.push_back(sites[site]);
    }
    const std::size_t k = 1 + rng.index(5);
    const VantagePointMerger merger(vantages, sites, k);

    for (std::size_t v = 0; v < vantage_count; ++v) {
      EXPECT_EQ(merger.sites_seen_by(v, slot_sites),
                testing::reference_sites_seen_by(vantages[v], slot_points, k))
          << "trial " << trial << " vantage " << v;
      std::vector<double> km;
      for (const GeoPoint& p : slot_points) {
        km.push_back(topology::great_circle_km(vantages[v], p));
      }
      std::sort(km.begin(), km.end());
      if (km.size() > k && km[k - 1] == km[k]) ++boundary_ties;
    }
    EXPECT_EQ(merger.visible_sites(slot_sites),
              testing::reference_visible_sites(vantages, slot_points, k))
        << "trial " << trial;
  }
  // The tie-break decided the selection many times over.
  EXPECT_GT(boundary_ties, 50u);
}

TEST(VantagePointMergerTest, MoreVantagesSeeMore) {
  stats::Rng rng(3);
  const auto few = VantagePointMerger::worldwide_vantages(4, rng);
  stats::Rng rng2(3);
  const auto many = VantagePointMerger::worldwide_vantages(74, rng2);
  std::vector<GeoPoint> sites;
  stats::Rng site_rng(9);
  for (int i = 0; i < 48; ++i) {
    sites.push_back(
        {site_rng.uniform(-60.0, 60.0), site_rng.uniform(-180.0, 180.0)});
  }
  const VantagePointMerger merger_few(few, sites, 3);
  const VantagePointMerger merger_many(many, sites, 3);
  const auto slots = identity_slots(sites.size());
  EXPECT_LE(set_bits(merger_few.visible_sites(slots)).size(),
            set_bits(merger_many.visible_sites(slots)).size());
}

TEST(VantagePointMergerTest, WorldwideVantagesCount) {
  stats::Rng rng(1);
  const auto vantages = VantagePointMerger::worldwide_vantages(74, rng);
  EXPECT_EQ(vantages.size(), 74u);
}

}  // namespace
}  // namespace lina::mobility
