// Extension experiment for §8's strategy-layer discussion: NDN-style
// content retrieval with on-path LRU caching under publisher mobility.
// Sweeps cache capacity and update-propagation speed; reports reachability,
// cache hit ratio, publisher offload, and retrieval delay — quantifying
// "on-path content caching ... does not suffice to ensure reachability to
// at least one copy of the requested content".

#include <iostream>
#include <string>

#include "common.hpp"
#include "lina/sim/content_session.hpp"

using namespace lina;

int main(int argc, char** argv) {
  bench::Harness harness(argc, argv, "content_caching_retrieval");
  bench::print_figure_header(
      "Content retrieval with on-path caching (extension, §8)",
      "(not a paper figure) caching absorbs the popular head and offloads "
      "the publisher, but uncached content is unreachable while router "
      "beliefs are stale after publisher mobility.");

  const auto& internet = bench::paper_internet();
  const sim::ForwardingFabric fabric(internet);

  const auto consumer = internet.edge_ases()[0];
  const auto make_config = [&](std::size_t cache, double update_hop_ms,
                               bool mobile) {
    sim::ContentSessionConfig config;
    config.consumer = consumer;
    config.publisher_schedule = {{0.0, internet.edge_ases()[40]}};
    if (mobile) {
      config.publisher_schedule.push_back({4000.0, internet.edge_ases()[90]});
      config.publisher_schedule.push_back({8000.0, internet.edge_ases()[140]});
    }
    config.catalog_segments = 2000;
    config.zipf_exponent = 1.0;
    config.request_interval_ms = 5.0;
    config.duration_ms = 12000.0;
    config.cache_capacity = cache;
    config.update_hop_ms = update_hop_ms;
    return config;
  };

  std::cout << stats::heading("Cache-capacity sweep (stationary publisher)");
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"cache entries/router", "hit ratio", "publisher load",
                  "median delay (ms)"});
  for (const std::size_t cache : {0u, 16u, 64u, 256u, 1024u}) {
    const auto stats_out = sim::simulate_content_session(
        fabric, make_config(cache, 5.0, /*mobile=*/false));
    const double publisher_load =
        static_cast<double>(stats_out.satisfied_from_publisher) /
        static_cast<double>(stats_out.interests_sent);
    const double median_delay = stats_out.retrieval_delay_ms.quantile(0.5);
    // Simulated delay, not a wall time: named without the `_ms` suffix so
    // that compare_runs.py gates it like every other result.
    const std::string key = "cache_" + std::to_string(cache) + "_";
    harness.result(key + "hit_ratio", stats_out.cache_hit_ratio());
    harness.result(key + "publisher_load", publisher_load);
    harness.result(key + "median_delay", median_delay);
    rows.push_back({std::to_string(cache),
                    stats::pct(stats_out.cache_hit_ratio(), 1),
                    stats::pct(publisher_load, 1),
                    stats::fmt(median_delay, 1)});
  }
  std::cout << stats::text_table(rows);

  std::cout << stats::heading(
      "Publisher mobility x update speed (cache 64/router)");
  rows.clear();
  rows.push_back({"update wavefront (ms/hop)", "reachability", "hit ratio",
                  "unsatisfied interests"});
  for (const double hop_ms : {1.0, 20.0, 80.0}) {
    const auto stats_out = sim::simulate_content_session(
        fabric, make_config(64, hop_ms, /*mobile=*/true));
    const std::string key =
        "hop_" + std::to_string(static_cast<int>(hop_ms)) + "_";
    harness.result(key + "reachability", stats_out.reachability());
    harness.result(key + "hit_ratio", stats_out.cache_hit_ratio());
    harness.result(key + "unsatisfied",
                   static_cast<double>(stats_out.unsatisfied));
    rows.push_back({stats::fmt(hop_ms, 0),
                    stats::pct(stats_out.reachability(), 2),
                    stats::pct(stats_out.cache_hit_ratio(), 1),
                    std::to_string(stats_out.unsatisfied)});
  }
  std::cout << stats::text_table(rows) << "\n";
  std::cout
      << "Reading: caching cuts publisher load and delay sharply for the "
         "Zipf head, but as update propagation slows, unsatisfied "
         "interests grow — exactly the paper's argument that caching "
         "complements but cannot replace mobility support in the routing "
         "or resolution plane.\n";
  return 0;
}
