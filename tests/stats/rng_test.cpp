#include "lina/stats/rng.hpp"

#include <gtest/gtest.h>

#include <set>
#include <vector>

namespace lina::stats {
namespace {

TEST(RngTest, SameSeedSameStream) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a(), b());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(RngTest, LabelSeparatesStreams) {
  Rng a(7, "device");
  Rng b(7, "content");
  EXPECT_NE(a(), b());
}

TEST(RngTest, SameLabelSameStream) {
  Rng a(7, "device");
  Rng b(7, "device");
  EXPECT_EQ(a(), b());
}

TEST(RngTest, UniformIntWithinBounds) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
  }
}

TEST(RngTest, UniformIntDegenerateRange) {
  Rng rng(3);
  EXPECT_EQ(rng.uniform_int(5, 5), 5u);
}

TEST(RngTest, UniformIntThrowsOnInvertedRange) {
  Rng rng(3);
  EXPECT_THROW((void)rng.uniform_int(6, 5), std::invalid_argument);
}

TEST(RngTest, IndexCoversRange) {
  Rng rng(5);
  std::set<std::size_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.index(4));
  EXPECT_EQ(seen.size(), 4u);
  EXPECT_EQ(*seen.rbegin(), 3u);
}

TEST(RngTest, IndexThrowsOnZero) {
  Rng rng(5);
  EXPECT_THROW((void)rng.index(0), std::invalid_argument);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformRange) {
  Rng rng(9);
  for (int i = 0; i < 100; ++i) {
    const double u = rng.uniform(-2.0, 3.0);
    EXPECT_GE(u, -2.0);
    EXPECT_LT(u, 3.0);
  }
}

TEST(RngTest, ChanceExtremes) {
  Rng rng(1);
  EXPECT_FALSE(rng.chance(0.0));
  EXPECT_FALSE(rng.chance(-1.0));
  EXPECT_TRUE(rng.chance(1.0));
  EXPECT_TRUE(rng.chance(2.0));
}

TEST(RngTest, ChanceApproximatesProbability) {
  Rng rng(17);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (rng.chance(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(RngTest, NormalMoments) {
  Rng rng(23);
  double sum = 0.0, sq = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(RngTest, NormalParameterized) {
  Rng rng(23);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.normal(5.0, 2.0);
  EXPECT_NEAR(sum / n, 5.0, 0.1);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(29);
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(2.0);
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(RngTest, ExponentialThrowsOnBadRate) {
  Rng rng(29);
  EXPECT_THROW((void)rng.exponential(0.0), std::invalid_argument);
  EXPECT_THROW((void)rng.exponential(-1.0), std::invalid_argument);
}

TEST(RngTest, PoissonMeanAndZero) {
  Rng rng(31);
  EXPECT_EQ(rng.poisson(0.0), 0u);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(rng.poisson(3.5));
  EXPECT_NEAR(sum / n, 3.5, 0.1);
}

TEST(RngTest, PoissonThrowsOnNegativeMean) {
  Rng rng(31);
  EXPECT_THROW((void)rng.poisson(-0.1), std::invalid_argument);
}

}  // namespace
}  // namespace lina::stats
