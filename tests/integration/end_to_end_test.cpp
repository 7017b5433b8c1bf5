// Integration tests exercising the full pipeline: synthetic Internet ->
// workload generation -> evaluation, including the paper's sensitivity
// analyses (§6.2) that cut across modules.

#include <gtest/gtest.h>

#include <algorithm>

#include "../support/fixtures.hpp"
#include "lina/core/lina.hpp"
#include "lina/stats/correlation.hpp"

namespace lina {
namespace {

using lina::testing::shared_content_catalog;
using lina::testing::shared_device_traces;
using lina::testing::shared_internet;

TEST(EndToEndTest, HeadlineFinding1DeviceUpdateCostHigh) {
  // Finding 1: with pure name-based routing, some routers are impacted by
  // a double-digit percentage of device mobility events.
  const core::DeviceUpdateCostEvaluator evaluator(
      shared_internet().vantages());
  const auto stats = evaluator.evaluate(shared_device_traces());
  double max_rate = 0.0;
  for (const auto& s : stats) max_rate = std::max(max_rate, s.rate());
  EXPECT_GT(max_rate, 0.08);
}

TEST(EndToEndTest, HeadlineFinding3ContentUpdateCostLow) {
  // Finding 3: with best-port forwarding, popular-content mobility impacts
  // routers far less than device mobility, and the long tail of unpopular
  // content barely at all.
  const core::DeviceUpdateCostEvaluator device_eval(
      shared_internet().vantages());
  const core::ContentUpdateCostEvaluator content_eval(
      shared_internet().vantages());

  const auto device = device_eval.evaluate(shared_device_traces());
  const auto popular = content_eval.evaluate(
      shared_content_catalog().popular, strategy::StrategyKind::kBestPort);
  const auto unpopular = content_eval.evaluate(
      shared_content_catalog().unpopular, strategy::StrategyKind::kBestPort);

  const auto max_rate = [](const auto& stats) {
    double rate = 0.0;
    for (const auto& s : stats) rate = std::max(rate, s.rate());
    return rate;
  };
  EXPECT_GT(max_rate(device), max_rate(popular));
  EXPECT_GT(max_rate(popular), max_rate(unpopular));
  EXPECT_LT(max_rate(unpopular), 0.05);
}

TEST(EndToEndTest, RouterSetSensitivityRipe) {
  // §6.2 sensitivity (2): a RIPE-like second router set yields
  // qualitatively similar conclusions.
  const auto ripe =
      shared_internet().build_vantages(routing::ripe_vantage_specs());
  const core::DeviceUpdateCostEvaluator rv_eval(shared_internet().vantages());
  const core::DeviceUpdateCostEvaluator ripe_eval(ripe);
  const auto rv_stats = rv_eval.evaluate(shared_device_traces());
  const auto ripe_stats = ripe_eval.evaluate(shared_device_traces());

  const auto max_rate = [](const auto& stats) {
    double rate = 0.0;
    for (const auto& s : stats) rate = std::max(rate, s.rate());
    return rate;
  };
  // Same order of magnitude at the top of both sets.
  const double rv_max = max_rate(rv_stats);
  const double ripe_max = max_rate(ripe_stats);
  EXPECT_GT(ripe_max, rv_max / 6.0);
  EXPECT_LT(ripe_max, rv_max * 6.0);
}

TEST(EndToEndTest, WorkloadSensitivityCorrelation) {
  // §6.2 sensitivity (3): update rates under a second, independent workload
  // correlate strongly across routers (paper: 0.88 between NomadLog and
  // IMAP-derived mobility).
  mobility::DeviceWorkloadConfig alt_config;
  alt_config.user_count = 80;
  alt_config.days = 7;
  alt_config.seed = 987654;  // different population
  alt_config.median_daily_transitions = 4.5;  // different intensity
  const auto alt_traces =
      mobility::DeviceWorkloadGenerator(shared_internet(), alt_config)
          .generate();

  const core::DeviceUpdateCostEvaluator evaluator(
      shared_internet().vantages());
  const auto base_stats = evaluator.evaluate(shared_device_traces());
  const auto alt_stats = evaluator.evaluate(alt_traces);

  std::vector<double> base_rates, alt_rates;
  for (const auto& s : base_stats) base_rates.push_back(s.rate());
  for (const auto& s : alt_stats) alt_rates.push_back(s.rate());
  EXPECT_GT(stats::pearson_correlation(base_rates, alt_rates), 0.8);
}

TEST(EndToEndTest, MobilityIntensityPerturbationIsQualitativelyStable) {
  // §8: findings should not change qualitatively if the extent of mobility
  // is perturbed by large factors.
  const core::DeviceUpdateCostEvaluator evaluator(
      shared_internet().vantages());

  mobility::DeviceWorkloadConfig slow;
  slow.user_count = 60;
  slow.days = 5;
  slow.median_daily_transitions = 1.0;
  mobility::DeviceWorkloadConfig fast = slow;
  fast.median_daily_transitions = 12.0;

  const auto slow_stats = evaluator.evaluate(
      mobility::DeviceWorkloadGenerator(shared_internet(), slow).generate());
  const auto fast_stats = evaluator.evaluate(
      mobility::DeviceWorkloadGenerator(shared_internet(), fast).generate());

  std::vector<double> slow_rates, fast_rates;
  for (const auto& s : slow_stats) slow_rates.push_back(s.rate());
  for (const auto& s : fast_stats) fast_rates.push_back(s.rate());
  // Per-event rates stay correlated across routers even when the absolute
  // mobility volume changes by an order of magnitude.
  EXPECT_GT(stats::pearson_correlation(slow_rates, fast_rates), 0.7);
}

TEST(EndToEndTest, Table1AnalyticAgainstSimulation) {
  // The §5 pipeline end to end: closed forms vs Markov simulation on the
  // paper's four toy topologies.
  stats::Rng rng(31337);
  const std::size_t n = 63;
  const auto chain = topology::make_chain(n);
  const analytic::TradeoffAnalyzer analyzer(chain);
  const auto exact = analyzer.exact();
  const auto sim = analyzer.simulate(30000, rng);
  EXPECT_NEAR(exact.name_based_update_cost,
              analytic::chain_name_based_update_cost(n), 1e-9);
  EXPECT_NEAR(sim.name_based_update_cost, exact.name_based_update_cost,
              0.01);
}

TEST(EndToEndTest, ForwardingCorrectnessAfterMobility) {
  // The displacement methodology's premise: after an endpoint moves, a
  // router that updates (or whose LPM port already matched) still reaches
  // the endpoint. Verify on the synthetic Internet that every vantage has
  // a port for every address a device ever uses.
  const auto vantages = shared_internet().vantages();
  std::vector<routing::FrozenFib> fibs;
  for (const auto& vantage : vantages) fibs.push_back(vantage.fib().freeze());
  for (const auto& trace : shared_device_traces()) {
    for (const auto& visit : trace.visits()) {
      for (std::size_t v = 0; v < vantages.size(); ++v) {
        EXPECT_NE(fibs[v].entry_for(visit.address), nullptr)
            << vantages[v].name();
      }
    }
  }
}

TEST(EndToEndTest, AggregateabilityStableAcrossCatalogScale) {
  // Aggregateability is a ratio; doubling the catalog should not change it
  // wildly at any router.
  mobility::ContentWorkloadConfig big;
  big.popular_domains = 120;
  big.unpopular_domains = 0;
  big.days = 2;
  const auto big_catalog =
      mobility::ContentWorkloadGenerator(shared_internet(), big).generate();

  const auto small_result = core::evaluate_aggregateability(
      shared_internet().vantages(), shared_content_catalog().popular);
  const auto big_result = core::evaluate_aggregateability(
      shared_internet().vantages(), big_catalog.popular);
  for (std::size_t i = 0; i < small_result.size(); ++i) {
    EXPECT_GT(big_result[i].ratio(), small_result[i].ratio() / 4.0);
    EXPECT_LT(big_result[i].ratio(), small_result[i].ratio() * 4.0);
  }
}

}  // namespace
}  // namespace lina
