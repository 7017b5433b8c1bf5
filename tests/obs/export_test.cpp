// lina::obs exporters: JSON document model round trips, snapshot ->
// JSON -> snapshot self-check, CSV shape. Runs under the
// `obs` ctest label.

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "lina/obs/export.hpp"
#include "lina/obs/json.hpp"
#include "lina/obs/registry.hpp"

namespace lina::obs {
namespace {

class ExportTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Registry::instance().reset();
    Registry::instance().enable(true);
  }
  void TearDown() override {
    Registry::instance().enable(false);
    Registry::instance().reset();
  }
};

// --- Json document model ---------------------------------------------

TEST_F(ExportTest, JsonParsesScalarsAndContainers) {
  const Json doc = Json::parse(
      R"({"a": 1.5, "b": [true, false, null], "s": "hi\n\"there\"",)"
      R"( "nested": {"k": -2e3}})");
  EXPECT_DOUBLE_EQ(doc.at("a").as_number(), 1.5);
  EXPECT_TRUE(doc.at("b").items()[0].as_bool());
  EXPECT_TRUE(doc.at("b").items()[2].is_null());
  EXPECT_EQ(doc.at("s").as_string(), "hi\n\"there\"");
  EXPECT_DOUBLE_EQ(doc.at("nested").at("k").as_number(), -2000.0);
}

TEST_F(ExportTest, JsonDumpParseRoundTripPreservesStructure) {
  Json doc = Json::object();
  doc["name"] = "bench";
  doc["count"] = std::uint64_t{12345678901234ull};
  doc["pi"] = 3.14159;
  doc["flag"] = true;
  doc["none"] = Json();
  Json arr = Json::array();
  arr.push_back(1);
  arr.push_back("two");
  doc["items"] = std::move(arr);

  for (const int indent : {0, 2}) {
    const Json again = Json::parse(doc.dump(indent));
    EXPECT_EQ(again.at("name").as_string(), "bench");
    EXPECT_DOUBLE_EQ(again.at("count").as_number(), 12345678901234.0);
    EXPECT_DOUBLE_EQ(again.at("pi").as_number(), 3.14159);
    EXPECT_TRUE(again.at("flag").as_bool());
    EXPECT_TRUE(again.at("none").is_null());
    ASSERT_EQ(again.at("items").items().size(), 2u);
    EXPECT_EQ(again.at("items").items()[1].as_string(), "two");
    // Member order survives the round trip (diffable exports).
    EXPECT_EQ(again.members().front().first, "name");
  }
}

TEST_F(ExportTest, JsonParseRejectsMalformedDocuments) {
  EXPECT_THROW((void)Json::parse("{"), std::runtime_error);
  EXPECT_THROW((void)Json::parse("[1,]"), std::runtime_error);
  EXPECT_THROW((void)Json::parse("{} trailing"), std::runtime_error);
  EXPECT_THROW((void)Json::parse("\"unterminated"), std::runtime_error);
  EXPECT_THROW((void)Json::parse("{1: 2}"), std::runtime_error);
}

// --- Snapshot round trip ---------------------------------------------

Snapshot make_populated_snapshot() {
  Counter packets = Registry::instance().counter("test.export.packets");
  Gauge depth = Registry::instance().gauge("test.export.depth");
  Histogram delay = Registry::instance().histogram("test.export.delay_ms");
  packets.add(99);
  depth.set(4.0);
  depth.set(2.0);
  for (int i = 1; i <= 32; ++i) delay.record(0.5 * i);
  return Registry::instance().snapshot();
}

void expect_snapshots_equal(const Snapshot& a, const Snapshot& b) {
  ASSERT_EQ(a.counters.size(), b.counters.size());
  for (std::size_t i = 0; i < a.counters.size(); ++i) {
    EXPECT_EQ(a.counters[i], b.counters[i]);
  }
  ASSERT_EQ(a.gauges.size(), b.gauges.size());
  for (std::size_t i = 0; i < a.gauges.size(); ++i) {
    EXPECT_EQ(a.gauges[i].first, b.gauges[i].first);
    EXPECT_DOUBLE_EQ(a.gauges[i].second.first, b.gauges[i].second.first);
    EXPECT_DOUBLE_EQ(a.gauges[i].second.second, b.gauges[i].second.second);
  }
  ASSERT_EQ(a.histograms.size(), b.histograms.size());
  for (std::size_t i = 0; i < a.histograms.size(); ++i) {
    EXPECT_EQ(a.histograms[i].first, b.histograms[i].first);
    const HistogramSnapshot& ha = a.histograms[i].second;
    const HistogramSnapshot& hb = b.histograms[i].second;
    EXPECT_EQ(ha.count, hb.count);
    EXPECT_DOUBLE_EQ(ha.sum, hb.sum);
    EXPECT_DOUBLE_EQ(ha.min, hb.min);
    EXPECT_DOUBLE_EQ(ha.max, hb.max);
    EXPECT_EQ(ha.upper_bounds, hb.upper_bounds);
    EXPECT_EQ(ha.buckets, hb.buckets);
    EXPECT_DOUBLE_EQ(ha.quantile(0.5), hb.quantile(0.5));
  }
}

TEST_F(ExportTest, SnapshotSurvivesJsonRoundTrip) {
  const Snapshot original = make_populated_snapshot();
  ASSERT_FALSE(original.empty());
  const Json doc = snapshot_to_json(original);
  const Snapshot again = parse_snapshot(Json::parse(doc.dump(2)));
  expect_snapshots_equal(original, again);
}

TEST_F(ExportTest, FullRunRecordSurvivesRoundTrip) {
  const Snapshot original = make_populated_snapshot();
  RunInfo info;
  info.name = "export_test";
  info.seed = 20140817;
  info.config.emplace_back("users", "372");
  info.phases.emplace_back("main", 12.5);
  info.results.emplace_back("median_stretch", 1.08);

  const std::string text = export_json(info, original);
  const Json doc = Json::parse(text);
  EXPECT_DOUBLE_EQ(doc.at("schema_version").as_number(), 1.0);
  EXPECT_EQ(doc.at("name").as_string(), "export_test");
  EXPECT_DOUBLE_EQ(doc.at("seed").as_number(), 20140817.0);
  EXPECT_EQ(doc.at("config").at("users").as_string(), "372");
  const auto& phases = doc.at("phases").items();
  ASSERT_EQ(phases.size(), 1u);
  EXPECT_EQ(phases[0].at("phase").as_string(), "main");
  EXPECT_DOUBLE_EQ(phases[0].at("wall_ms").as_number(), 12.5);
  EXPECT_DOUBLE_EQ(doc.at("results").at("median_stretch").as_number(), 1.08);
  // parse_snapshot accepts the full record (metrics nested inside).
  expect_snapshots_equal(original, parse_snapshot(doc));
}

TEST_F(ExportTest, ParseSnapshotRejectsCorruptedBuckets) {
  const Snapshot original = make_populated_snapshot();
  Json doc = snapshot_to_json(original);
  // Corrupt one histogram bucket so the bucket sum no longer matches the
  // count; the parser must refuse rather than load silently-wrong data.
  Json& hist = doc["histograms"]["test.export.delay_ms"];
  Json& buckets = hist["buckets"];
  Json bumped = Json::array();
  for (std::size_t i = 0; i < buckets.items().size(); ++i) {
    bumped.push_back(buckets.items()[i].as_number() + 1.0);
  }
  hist["buckets"] = std::move(bumped);
  EXPECT_THROW((void)parse_snapshot(doc), std::runtime_error);
}

// --- CSV shape --------------------------------------------------------

TEST_F(ExportTest, CsvCarriesEveryMetricAsRows) {
  const std::string csv = export_csv(make_populated_snapshot());
  std::istringstream is(csv);
  std::string line;
  ASSERT_TRUE(std::getline(is, line));
  EXPECT_EQ(line, "metric,kind,field,value");
  bool saw_counter = false, saw_gauge = false, saw_p50 = false;
  while (std::getline(is, line)) {
    if (line.find("test.export.packets,counter,value,99") == 0)
      saw_counter = true;
    if (line.find("test.export.depth,gauge,") != std::string::npos)
      saw_gauge = true;
    if (line.find("test.export.delay_ms,histogram,p50,") != std::string::npos)
      saw_p50 = true;
  }
  EXPECT_TRUE(saw_counter);
  EXPECT_TRUE(saw_gauge);
  EXPECT_TRUE(saw_p50);
}

}  // namespace
}  // namespace lina::obs
