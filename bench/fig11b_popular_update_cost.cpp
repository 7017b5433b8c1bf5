// Reproduces Figure 11(b) (§7.2): fraction of popular-content mobility
// events inducing a router update, under controlled flooding and best-port
// forwarding, plus the §7.3 back-of-the-envelope projection.

#include <algorithm>
#include <iostream>

#include "common.hpp"

using namespace lina;

int main(int argc, char** argv) {
  bench::Harness harness(argc, argv, "fig11b_popular_update_cost");
  bench::print_figure_header(
      "Figure 11(b) — popular content mobility inducing router updates",
      "up to 13% of events with controlled flooding; at most 6% with "
      "best-port forwarding — the closest address rarely changes even when "
      "the set churns.");

  const core::ContentUpdateCostEvaluator evaluator(
      bench::paper_internet().vantages());
  const auto& popular = bench::paper_content_catalog().popular;

  const auto flooding = evaluator.evaluate(
      popular, strategy::StrategyKind::kControlledFlooding);
  const auto best =
      evaluator.evaluate(popular, strategy::StrategyKind::kBestPort);

  bench::record_router_tallies(harness, "flooding", flooding);
  bench::record_router_tallies(harness, "best_port", best);

  std::vector<std::vector<std::string>> rows;
  rows.push_back({"router", "controlled flooding", "best-port"});
  double flood_max = 0.0, best_max = 0.0;
  for (std::size_t i = 0; i < flooding.size(); ++i) {
    rows.push_back({flooding[i].router, stats::pct(flooding[i].rate(), 2),
                    stats::pct(best[i].rate(), 2)});
    flood_max = std::max(flood_max, flooding[i].rate());
    best_max = std::max(best_max, best[i].rate());
  }
  std::cout << stats::text_table(rows) << "\n";
  std::cout << "Measured: flooding max " << stats::pct(flood_max, 1)
            << " (paper <= 13%); best-port max " << stats::pct(best_max, 1)
            << " (paper <= 6%) over " << flooding.front().events
            << " events.\n";

  // §7.3 back-of-the-envelope.
  std::cout << stats::heading("Back-of-the-envelope (§7.3)");
  stats::EmpiricalCdf events_per_day;
  for (const auto& trace : popular) events_per_day.add(trace.events_per_day());
  std::vector<double> best_rates;
  for (const auto& s : best) best_rates.push_back(s.rate());
  std::sort(best_rates.begin(), best_rates.end());
  const double best_median = best_rates[best_rates.size() / 2];
  const auto load = core::content_scale_estimate(
      1e9, events_per_day.quantile(0.5), best_median);
  std::cout << "1B names x " << stats::fmt(events_per_day.quantile(0.5), 1)
            << " moves/day x " << stats::pct(best_median, 2)
            << " (median router, best-port) -> "
            << stats::fmt(load.updates_per_second(), 0)
            << " updates/sec (paper: at most ~100/sec at 2/day and "
               "0.5%).\n";
  return 0;
}
