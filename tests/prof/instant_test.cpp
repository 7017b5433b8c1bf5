// Instant events: zero-length records on the simulated timeline that share
// the span rings. Disabled instants record nothing, enabled instants carry
// name/sim time/value under the innermost open span, a full ring drops and
// counts them, the Chrome export writes them as "i" events, and the folded
// export ignores them. (Malformed "i" events are covered with their span
// counterparts in export_test.cpp.) Runs under the `prof` ctest label
// (plain, ASan+UBSan and TSan presets).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "lina/obs/json.hpp"
#include "lina/prof/export.hpp"
#include "lina/prof/prof.hpp"

namespace lina::prof {
namespace {

void reset_prof() {
  Profiler::instance().enable(false);
  Profiler::instance().set_ring_capacity(Profiler::kDefaultRingCapacity);
  Profiler::instance().reset();
}

std::vector<SpanRecord> instants(const std::vector<SpanRecord>& records) {
  std::vector<SpanRecord> out;
  for (const SpanRecord& record : records) {
    if (record.is_instant()) out.push_back(record);
  }
  return out;
}

TEST(ProfInstantTest, DisabledInstantsRecordNothing) {
  reset_prof();
  instant("lina.test.disabled_instant", 1.0, 2.0);
  {
    PROF_SPAN("lina.test.disabled_outer");
    instant("lina.test.disabled_nested", 3.0);
  }
  EXPECT_TRUE(Profiler::instance().drain().empty());
  EXPECT_EQ(Profiler::instance().dropped(), 0u);
  EXPECT_EQ(current_span_id(), 0u);
}

TEST(ProfInstantTest, InstantCarriesNameSimTimeValueAndParent) {
  reset_prof();
  std::uint64_t outer_id = 0;
  {
    EnabledScope scope;
    instant("lina.test.root_instant", 0.5);
    PROF_SPAN("lina.test.outer");
    outer_id = current_span_id();
    instant("lina.test.move", 1250.0, 42.0);
  }
  const std::vector<SpanRecord> records = Profiler::instance().drain();
  const std::vector<SpanRecord> points = instants(records);
  ASSERT_EQ(points.size(), 2u);
  EXPECT_EQ(records.size(), 3u);  // two instants and the span

  const SpanRecord& root = points[0];
  EXPECT_STREQ(root.name, "lina.test.root_instant");
  EXPECT_EQ(root.parent, 0u);
  EXPECT_DOUBLE_EQ(root.sim_ms, 0.5);
  EXPECT_DOUBLE_EQ(root.value, 0.0);
  EXPECT_EQ(root.depth, 1u);

  const SpanRecord& move = points[1];
  EXPECT_STREQ(move.name, "lina.test.move");
  EXPECT_NE(outer_id, 0u);
  EXPECT_EQ(move.parent, outer_id);
  EXPECT_DOUBLE_EQ(move.sim_ms, 1250.0);
  EXPECT_DOUBLE_EQ(move.value, 42.0);
  EXPECT_EQ(move.begin_ns, move.end_ns);
  EXPECT_EQ(move.depth, 2u);
  reset_prof();
}

TEST(ProfInstantTest, FullRingDropsAndCountsInstants) {
  Profiler::instance().enable(false);
  Profiler::instance().set_ring_capacity(3);
  Profiler::instance().reset();
  {
    EnabledScope scope;
    for (int i = 0; i < 8; ++i) {
      instant("lina.test.flood", static_cast<double>(i));
    }
  }
  const std::vector<SpanRecord> points =
      instants(Profiler::instance().drain());
  ASSERT_EQ(points.size(), 3u);
  // The ring keeps the oldest records and drops the newest.
  EXPECT_DOUBLE_EQ(points.front().sim_ms, 0.0);
  EXPECT_DOUBLE_EQ(points.back().sim_ms, 2.0);
  EXPECT_EQ(Profiler::instance().dropped(), 5u);
  EXPECT_EQ(collect().dropped_total(), 5u);
  reset_prof();
}

TEST(ProfInstantTest, ChromeExportWritesInstantEvents) {
  reset_prof();
  {
    EnabledScope scope;
    PROF_SPAN("lina.test.export_parent");
    instant("lina.test.reconverge", 2500.0, 7.0);
  }
  const std::string trace = export_chrome_trace(collect());
  EXPECT_EQ(validate_chrome_trace(trace), 2u);

  const obs::Json document = obs::Json::parse(trace);
  std::size_t seen = 0;
  for (const obs::Json& event : document.find("traceEvents")->items()) {
    if (event.at("ph").as_string() != "i") continue;
    ++seen;
    EXPECT_EQ(event.at("name").as_string(), "lina.test.reconverge");
    EXPECT_EQ(event.find("dur"), nullptr);
    EXPECT_NE(event.find("ts"), nullptr);
    const obs::Json& args = event.at("args");
    EXPECT_EQ(args.at("sim_ms").as_number(), 2500.0);
    EXPECT_EQ(args.at("value").as_number(), 7.0);
    EXPECT_GT(args.at("parent").as_number(), 0.0);
  }
  EXPECT_EQ(seen, 1u);
  reset_prof();
}

TEST(ProfInstantTest, FoldedOutputIgnoresInstants) {
  reset_prof();
  {
    EnabledScope scope;
    PROF_SPAN("lina.test.fold_root");
    instant("lina.timeline.root_instant", 1.0);
    {
      PROF_SPAN("lina.test.fold_leaf");
      instant("lina.timeline.leaf_instant", 2.0);
    }
  }
  const ProfileReport report = collect();
  ProfileReport spans_only = report;
  std::erase_if(spans_only.spans,
                [](const SpanRecord& r) { return r.is_instant(); });
  ASSERT_EQ(spans_only.spans.size() + 2, report.spans.size());
  EXPECT_EQ(export_folded(report), export_folded(spans_only));
  EXPECT_EQ(span_layers(report), span_layers(spans_only));
  reset_prof();
}

}  // namespace
}  // namespace lina::prof
