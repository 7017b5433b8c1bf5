// Exporter checks: the Chrome trace-event JSON passes its own parse-back
// validator (the same check the bench harness runs), counter deltas ride
// in span args, drop accounting is visible, and the folded-stack export
// aggregates parent chains. Runs under the `prof` ctest label.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <string_view>

#include "lina/obs/json.hpp"
#include "lina/obs/metrics.hpp"
#include "lina/obs/registry.hpp"
#include "lina/prof/export.hpp"
#include "lina/prof/prof.hpp"

namespace lina::prof {
namespace {

void reset_all() {
  Profiler::instance().enable(false);
  Profiler::instance().set_ring_capacity(Profiler::kDefaultRingCapacity);
  Profiler::instance().reset();
  obs::Registry::instance().reset();
}

TEST(ProfExportTest, ChromeTraceValidatesAndCarriesStructure) {
  reset_all();
  {
    EnabledScope scope;
    PROF_SPAN("lina.test.export_root");
    { PROF_SPAN("lina.test.export_child"); }
  }
  const ProfileReport report = collect();
  ASSERT_EQ(report.spans.size(), 2u);

  const std::string trace = export_chrome_trace(report);
  EXPECT_EQ(validate_chrome_trace(trace), 2u);

  const obs::Json document = obs::Json::parse(trace);
  const obs::Json& events = *document.find("traceEvents");
  bool saw_child = false;
  for (const obs::Json& event : events.items()) {
    if (!event.at("ph").is_string() || event.at("ph").as_string() != "X")
      continue;
    if (event.at("name").as_string() != "lina.test.export_child") continue;
    saw_child = true;
    const obs::Json& args = event.at("args");
    EXPECT_NE(args.find("span"), nullptr);
    EXPECT_NE(args.find("parent"), nullptr);
    EXPECT_NE(args.find("depth"), nullptr);
    EXPECT_GT(args.at("parent").as_number(), 0.0);
  }
  EXPECT_TRUE(saw_child);
  // Drop accounting is always present, even when zero.
  const obs::Json* other = document.find("otherData");
  ASSERT_NE(other, nullptr);
  EXPECT_EQ(other->at("spans_dropped").as_number(), 0.0);
  reset_all();
}

TEST(ProfExportTest, CounterDeltasAttachToSpans) {
  reset_all();
  // The attributed counters sample through the obs registry, so both
  // switches go on — exactly what Harness --profile does.
  obs::EnabledScope obs_scope;
  {
    EnabledScope scope;
    PROF_SPAN("lina.test.counted_region");
    obs::metric::resolver_lookups().add(7);
  }
  const ProfileReport report = collect();
  ASSERT_FALSE(report.spans.empty());
  const std::string trace = export_chrome_trace(report);
  EXPECT_GE(validate_chrome_trace(trace), 1u);

  const obs::Json document = obs::Json::parse(trace);
  bool saw_delta = false;
  for (const obs::Json& event : document.find("traceEvents")->items()) {
    if (!event.at("ph").is_string() || event.at("ph").as_string() != "X")
      continue;
    if (event.at("name").as_string() != "lina.test.counted_region")
      continue;
    const obs::Json& args = event.at("args");
    const obs::Json* delta = args.find("lina.sim.resolver.lookups");
    ASSERT_NE(delta, nullptr)
        << "counter delta missing from span args";
    EXPECT_EQ(delta->as_number(), 7.0);
    saw_delta = true;
  }
  EXPECT_TRUE(saw_delta);
  reset_all();
}

TEST(ProfExportTest, DroppedSpansAreAccountedInExport) {
  Profiler::instance().enable(false);
  Profiler::instance().set_ring_capacity(2);
  Profiler::instance().reset();
  {
    EnabledScope scope;
    for (int i = 0; i < 6; ++i) {
      PROF_SPAN("lina.test.drop_me");
    }
  }
  const ProfileReport report = collect();
  EXPECT_EQ(report.dropped_total(), 4u);
  const std::string trace = export_chrome_trace(report);
  const obs::Json document = obs::Json::parse(trace);
  EXPECT_EQ(document.find("otherData")->at("spans_dropped").as_number(),
            4.0);
  reset_all();
}

TEST(ProfExportTest, FoldedStacksAggregateParentChains) {
  reset_all();
  {
    EnabledScope scope;
    PROF_SPAN("lina.test.fold_root");
    { PROF_SPAN("lina.test.fold_leaf"); }
    { PROF_SPAN("lina.test.fold_leaf"); }
  }
  const ProfileReport report = collect();
  const std::string folded = export_folded(report);

  // Exactly one aggregated line per distinct stack.
  std::size_t leaf_lines = 0;
  std::size_t root_lines = 0;
  std::istringstream lines(folded);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("lina.test.fold_root;lina.test.fold_leaf ", 0) == 0)
      ++leaf_lines;
    else if (line.rfind("lina.test.fold_root ", 0) == 0)
      ++root_lines;
  }
  EXPECT_EQ(leaf_lines, 1u);
  EXPECT_EQ(root_lines, 1u);
  reset_all();
}

TEST(ProfExportTest, ValidatorRejectsMalformedDocuments) {
  EXPECT_THROW(validate_chrome_trace("[1,2,3]"), std::runtime_error);
  EXPECT_THROW(validate_chrome_trace("{\"notTraceEvents\":[]}"),
               std::runtime_error);
  EXPECT_THROW(
      validate_chrome_trace(
          "{\"traceEvents\":[{\"ph\":\"X\",\"name\":\"x\"}]}"),
      std::runtime_error);
  EXPECT_EQ(validate_chrome_trace("{\"traceEvents\":[]}"), 0u);
  // An instant needs no dur, but it does need its ts.
  EXPECT_EQ(validate_chrome_trace(
                R"({"traceEvents":[{"ph":"i","name":"x","cat":"lina",)"
                R"("ts":1,"pid":1,"tid":1}]})"),
            1u);
  EXPECT_THROW(validate_chrome_trace(
                   R"({"traceEvents":[{"ph":"i","name":"x","cat":"lina",)"
                   R"("pid":1,"tid":1}]})"),
               std::runtime_error);
}

}  // namespace
}  // namespace lina::prof
