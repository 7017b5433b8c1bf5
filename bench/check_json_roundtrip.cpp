// Python-free telemetry self-check: drive a small instrumented run,
// export the full BENCH_*.json record plus the CSV, then load the JSON back through the obs parser and verify every metric
// survives the round trip. Exits non-zero (with a message) on the first
// mismatch, so it runs as a plain ctest entry under the `obs` label.

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <string>

#include "lina/obs/export.hpp"
#include "lina/obs/json.hpp"
#include "lina/obs/registry.hpp"

namespace {

int failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    std::cerr << "FAIL: " << what << "\n";
    ++failures;
  }
}

void check_close(double a, double b, const std::string& what) {
  check(std::abs(a - b) <= 1e-9 * std::max({1.0, std::abs(a), std::abs(b)}),
        what + " (" + std::to_string(a) + " vs " + std::to_string(b) + ")");
}

}  // namespace

int main() {
  using namespace lina::obs;

  Registry::instance().reset();
  EnabledScope scope;

  // A miniature instrumented "run" touching every metric shape.
  Counter packets = Registry::instance().counter("check.packets");
  Gauge depth = Registry::instance().gauge("check.queue_depth");
  Histogram delay = Registry::instance().histogram("check.delay_ms");
  packets.add(12345);
  depth.set(7.0);
  depth.set(3.0);
  for (int i = 1; i <= 100; ++i) delay.record(0.25 * i);

  RunInfo info;
  info.name = "check_json_roundtrip";
  info.seed = 1;
  info.config.emplace_back("mode", "self-check");
  info.phases.emplace_back("main", 0.5);
  info.results.emplace_back("ok", 1.0);

  const Snapshot before = Registry::instance().snapshot();
  const std::string text = export_json(info, before);

  // 1. The emitted record must parse as JSON at all.
  Json doc;
  try {
    doc = Json::parse(text);
  } catch (const std::exception& error) {
    std::cerr << "FAIL: emitted JSON does not parse: " << error.what()
              << "\n";
    return EXIT_FAILURE;
  }

  // 2. Envelope fields.
  check(doc.at("schema_version").as_number() == 1.0, "schema_version == 1");
  check(doc.at("name").as_string() == info.name, "name round trip");
  check(doc.at("seed").as_number() == 1.0, "seed round trip");
  check(doc.at("config").at("mode").as_string() == "self-check",
        "config round trip");
  check(doc.at("results").at("ok").as_number() == 1.0, "results round trip");

  // 3. Every metric survives parse_snapshot.
  Snapshot after;
  try {
    after = parse_snapshot(doc);
  } catch (const std::exception& error) {
    std::cerr << "FAIL: parse_snapshot rejected own export: "
              << error.what() << "\n";
    return EXIT_FAILURE;
  }
  check(after.counters == before.counters, "counters round trip");
  check(after.gauges.size() == before.gauges.size(), "gauge count");
  for (std::size_t i = 0;
       i < std::min(after.gauges.size(), before.gauges.size()); ++i) {
    check_close(after.gauges[i].second.first, before.gauges[i].second.first,
                "gauge value " + before.gauges[i].first);
    check_close(after.gauges[i].second.second,
                before.gauges[i].second.second,
                "gauge max " + before.gauges[i].first);
  }
  check(after.histograms.size() == before.histograms.size(),
        "histogram count");
  for (std::size_t i = 0;
       i < std::min(after.histograms.size(), before.histograms.size());
       ++i) {
    const auto& [name_b, hb] = before.histograms[i];
    const auto& [name_a, ha] = after.histograms[i];
    check(name_a == name_b, "histogram name order");
    check(ha.count == hb.count, name_b + " count");
    check_close(ha.sum, hb.sum, name_b + " sum");
    check_close(ha.min, hb.min, name_b + " min");
    check_close(ha.max, hb.max, name_b + " max");
    check(ha.buckets == hb.buckets, name_b + " buckets");
    check(ha.upper_bounds == hb.upper_bounds, name_b + " bounds");
    for (const double q : {0.5, 0.9, 0.99}) {
      check_close(ha.quantile(q), hb.quantile(q),
                  name_b + " q" + std::to_string(q));
    }
  }

  // 4. The CSV mentions every metric exactly as named.
  const std::string csv = export_csv(before);
  for (const std::string metric :
       {"check.packets", "check.queue_depth", "check.delay_ms"}) {
    check(csv.find(metric) != std::string::npos, "csv carries " + metric);
  }

  if (failures != 0) {
    std::cerr << failures << " check(s) failed\n";
    return EXIT_FAILURE;
  }
  std::cout << "check_json_roundtrip: all checks passed ("
            << before.counters.size() << " counters, "
            << before.gauges.size() << " gauges, "
            << before.histograms.size() << " histograms)\n";
  return EXIT_SUCCESS;
}
