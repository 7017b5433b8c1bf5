// Reproduces Figure 11(c) (§7.2): fraction of unpopular-content mobility
// events inducing a router update — the long tail barely moves routers.

#include <algorithm>
#include <iostream>

#include "common.hpp"

using namespace lina;

int main(int argc, char** argv) {
  bench::Harness harness(argc, argv, "fig11c_unpopular_update_cost");
  bench::print_figure_header(
      "Figure 11(c) — unpopular content mobility inducing router updates",
      "at most 1% of events even with controlled flooding; with best-port "
      "forwarding almost no router updates (median 0.08%); only 1.6% of "
      "unpopular domains are CDN-delegated vs 24.5% of popular ones.");

  const core::ContentUpdateCostEvaluator evaluator(
      bench::paper_internet().vantages());
  const auto& catalog = bench::paper_content_catalog();

  const auto flooding = evaluator.evaluate(
      catalog.unpopular, strategy::StrategyKind::kControlledFlooding);
  const auto best =
      evaluator.evaluate(catalog.unpopular, strategy::StrategyKind::kBestPort);

  bench::record_router_tallies(harness, "flooding", flooding);
  bench::record_router_tallies(harness, "best_port", best);

  std::vector<std::vector<std::string>> rows;
  rows.push_back({"router", "controlled flooding", "best-port"});
  std::vector<double> best_rates;
  double flood_max = 0.0;
  for (std::size_t i = 0; i < flooding.size(); ++i) {
    rows.push_back({flooding[i].router, stats::pct(flooding[i].rate(), 3),
                    stats::pct(best[i].rate(), 3)});
    flood_max = std::max(flood_max, flooding[i].rate());
    best_rates.push_back(best[i].rate());
  }
  std::cout << stats::text_table(rows) << "\n";
  std::sort(best_rates.begin(), best_rates.end());
  std::cout << "Measured: flooding max " << stats::pct(flood_max, 2)
            << " (paper <= 1%); best-port median "
            << stats::pct(best_rates[best_rates.size() / 2], 3)
            << " (paper 0.08%) over " << flooding.front().events
            << " events.\n";

  // CDN delegation split (§7.2's explanation).
  double cdn = 0.0, total = 0.0;
  for (const auto& trace : catalog.unpopular) {
    if (trace.name().depth() != 2) continue;
    ++total;
    if (trace.cdn_backed()) ++cdn;
  }
  std::cout << "CDN-delegated unpopular domains: " << stats::pct(cdn / total, 1)
            << " (paper: 1.6%; popular: 24.5%).\n";
  return 0;
}
