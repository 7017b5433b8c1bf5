#pragma once

// A session's headline totals, for pinning SessionStats to recorded
// values: packet counts, control messages and retries, and the exact sums
// of the delay, stretch and outage samples (summed in sorted order, so a
// sum is bit-exact for a bit-identical sample set).

#include <gtest/gtest.h>

#include <cstddef>
#include <numeric>

#include "lina/sim/session.hpp"

namespace lina::testing {

struct SessionTotals {
  std::size_t sent = 0;
  std::size_t delivered = 0;
  std::size_t control_messages = 0;
  std::size_t control_retries = 0;
  double delay_sum_ms = 0.0;
  double stretch_sum = 0.0;
  double outage_sum_ms = 0.0;
};

inline double sample_sum(const stats::EmpiricalCdf& cdf) {
  const auto& samples = cdf.sorted_samples();
  return std::accumulate(samples.begin(), samples.end(), 0.0);
}

inline void expect_totals(const sim::SessionStats& stats,
                          const SessionTotals& want) {
  EXPECT_EQ(stats.packets_sent, want.sent);
  EXPECT_EQ(stats.packets_delivered, want.delivered);
  EXPECT_EQ(stats.control_messages, want.control_messages);
  EXPECT_EQ(stats.control_retries, want.control_retries);
  EXPECT_EQ(sample_sum(stats.delivery_delay_ms), want.delay_sum_ms);
  EXPECT_EQ(sample_sum(stats.stretch), want.stretch_sum);
  EXPECT_EQ(sample_sum(stats.outage_ms), want.outage_sum_ms);
}

}  // namespace lina::testing
