#include "lina/mobility/trace_io.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>

#include "lina/mobility/content_workload.hpp"
#include "lina/mobility/device_workload.hpp"

namespace lina::mobility {
namespace {

const routing::SyntheticInternet& internet() {
  static const routing::SyntheticInternet instance = [] {
    routing::SyntheticInternetConfig config;
    config.topology.tier1_count = 6;
    config.topology.tier2_count = 20;
    config.topology.stub_count = 150;
    return routing::SyntheticInternet(config);
  }();
  return instance;
}

TEST(NomadLogCsvTest, RecordsRoundTrip) {
  DeviceWorkloadConfig config;
  config.user_count = 5;
  config.days = 3;
  const auto traces = DeviceWorkloadGenerator(internet(), config).generate();

  std::stringstream buffer;
  write_nomadlog_csv(buffer, traces);
  const auto records = read_nomadlog_csv(buffer);

  std::size_t visit_count = 0;
  for (const auto& trace : traces) visit_count += trace.visits().size();
  ASSERT_EQ(records.size(), visit_count);

  // Spot-check the first record of user 0.
  EXPECT_EQ(records.front().device_id, 0u);
  EXPECT_DOUBLE_EQ(records.front().time_hours, 0.0);
  EXPECT_EQ(records.front().address, traces.front().visits().front().address);
}

TEST(NomadLogCsvTest, TracesReconstructFaithfully) {
  DeviceWorkloadConfig config;
  config.user_count = 6;
  config.days = 3;
  const auto original =
      DeviceWorkloadGenerator(internet(), config).generate();

  std::stringstream buffer;
  write_nomadlog_csv(buffer, original);
  const auto records = read_nomadlog_csv(buffer);
  const InternetAddressResolver resolver(internet());
  // A generous tail keeps even users whose single lease spanned the whole
  // observation window (the log alone cannot prove they stayed a day).
  const auto rebuilt = traces_from_records(records, resolver, 72.0);

  ASSERT_EQ(rebuilt.size(), original.size());
  for (std::size_t u = 0; u < rebuilt.size(); ++u) {
    // Visit sequences must agree on addresses and metadata; the final
    // visit's duration differs (the log has no explicit end).
    ASSERT_EQ(rebuilt[u].visits().size(), original[u].visits().size());
    for (std::size_t i = 0; i < rebuilt[u].visits().size(); ++i) {
      EXPECT_EQ(rebuilt[u].visits()[i].address,
                original[u].visits()[i].address);
      EXPECT_EQ(rebuilt[u].visits()[i].as, original[u].visits()[i].as);
      EXPECT_EQ(rebuilt[u].visits()[i].prefix,
                original[u].visits()[i].prefix);
      EXPECT_EQ(rebuilt[u].visits()[i].cellular,
                original[u].visits()[i].cellular);
      EXPECT_NEAR(rebuilt[u].visits()[i].start_hour,
                  original[u].visits()[i].start_hour, 1e-6);
    }
  }
}

TEST(NomadLogCsvTest, ParsesHandWrittenRows) {
  std::istringstream input(
      "device_id,time_hours,ip_addr,net_type,lat,long\n"
      "7,0,1.2.3.4,wifi,42.3,-72.5\n"
      "7,5.25,5.6.7.8,cellular,,\n");
  const auto records = read_nomadlog_csv(input);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].device_id, 7u);
  EXPECT_TRUE(records[0].has_location);
  EXPECT_DOUBLE_EQ(records[0].latitude_deg, 42.3);
  EXPECT_FALSE(records[0].cellular);
  EXPECT_TRUE(records[1].cellular);
  EXPECT_FALSE(records[1].has_location);
  EXPECT_DOUBLE_EQ(records[1].time_hours, 5.25);
}

TEST(NomadLogCsvTest, RejectsMalformedRows) {
  const auto expect_throw = [](const char* text) {
    std::istringstream input(text);
    EXPECT_THROW((void)read_nomadlog_csv(input), std::invalid_argument)
        << text;
  };
  expect_throw("1,0,1.2.3.4\n");                  // too few fields
  expect_throw("x,0,1.2.3.4,wifi\n");             // bad id
  expect_throw("1,zero,1.2.3.4,wifi\n");          // bad time
  expect_throw("1,0,999.2.3.4,wifi\n");           // bad address
  expect_throw("1,0,1.2.3.4,tachyon\n");          // bad net type
  expect_throw("1,0,1.2.3.4,wifi,abc,1.0\n");     // bad latitude
}

/// The message a parse of `text` throws, or "" if it does not throw.
template <typename Parse>
std::string parse_error(const std::string& text, Parse parse) {
  std::istringstream input(text);
  try {
    (void)parse(input);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(NomadLogCsvTest, RejectsNonFiniteNumbers) {
  const auto read = [](std::istream& in) { return read_nomadlog_csv(in); };
  for (const char* hours : {"nan", "inf", "-inf", "NAN", "infinity"}) {
    const std::string row = std::string("1,") + hours + ",1.2.3.4,wifi\n";
    EXPECT_EQ(parse_error(row, read).rfind("trace_io: bad time_hours", 0), 0u)
        << row;
  }
  EXPECT_EQ(parse_error("1,0,1.2.3.4,wifi,nan,1.0\n", read)
                .rfind("trace_io: bad lat", 0),
            0u);
  EXPECT_EQ(parse_error("1,0,1.2.3.4,wifi,1.0,inf\n", read)
                .rfind("trace_io: bad long", 0),
            0u);
}

TEST(NomadLogCsvTest, DropsShortAndUnmappableDevices) {
  // Device 1: fine (2 days). Device 2: under a day -> removed (§4).
  // Device 3: address outside the synthetic plane -> unmappable, removed.
  std::istringstream input(
      "1,0,1.0.0.10,wifi\n"
      "1,30,1.5.0.10,wifi\n"
      "2,0,1.0.0.10,wifi\n"
      "2,2,1.5.0.10,wifi\n"
      "3,0,250.1.2.3,wifi\n"
      "3,40,250.1.2.4,wifi\n");
  const auto records = read_nomadlog_csv(input);
  const InternetAddressResolver resolver(internet());
  const auto traces = traces_from_records(records, resolver, 1.0);
  ASSERT_EQ(traces.size(), 1u);
  EXPECT_EQ(traces.front().user_id(), 1u);
  EXPECT_EQ(traces.front().day_count(), 2u);
  EXPECT_EQ(traces.front().visits().size(), 2u);
}

TEST(NomadLogCsvTest, SimultaneousEventsKeepLast) {
  std::istringstream input(
      "1,0,1.0.0.10,wifi\n"
      "1,10,1.5.0.10,wifi\n"
      "1,10,1.9.0.10,wifi\n"
      "1,30,1.0.0.10,wifi\n");
  const auto records = read_nomadlog_csv(input);
  const InternetAddressResolver resolver(internet());
  const auto traces = traces_from_records(records, resolver, 1.0);
  ASSERT_EQ(traces.size(), 1u);
  // 4 events, one pair simultaneous -> 3 visits.
  EXPECT_EQ(traces.front().visits().size(), 3u);
  EXPECT_EQ(traces.front().visits()[1].address,
            net::Ipv4Address::parse("1.9.0.10"));
}

TEST(NomadLogCsvTest, TailHoursValidation) {
  const InternetAddressResolver resolver(internet());
  EXPECT_THROW((void)traces_from_records({}, resolver, 0.0),
               std::invalid_argument);
}

TEST(ContentCsvTest, CatalogRoundTrip) {
  ContentWorkloadConfig config;
  config.popular_domains = 8;
  config.unpopular_domains = 4;
  config.days = 2;
  const auto catalog =
      ContentWorkloadGenerator(internet(), config).generate();

  std::stringstream buffer;
  write_content_csv(buffer, catalog.popular);
  const auto rebuilt = read_content_csv(buffer);

  ASSERT_EQ(rebuilt.size(), catalog.popular.size());
  for (std::size_t i = 0; i < rebuilt.size(); ++i) {
    const auto& a = catalog.popular[i];
    const auto& b = rebuilt[i];
    EXPECT_EQ(a.name(), b.name());
    EXPECT_EQ(a.popular(), b.popular());
    EXPECT_EQ(a.cdn_backed(), b.cdn_backed());
    EXPECT_EQ(a.day_count(), b.day_count());
    ASSERT_EQ(a.snapshots().size(), b.snapshots().size());
    for (std::size_t s = 0; s < a.snapshots().size(); ++s) {
      EXPECT_DOUBLE_EQ(a.snapshots()[s].hour, b.snapshots()[s].hour);
      EXPECT_TRUE(std::ranges::equal(a.snapshots()[s].addresses,
                                     b.snapshots()[s].addresses));
    }
  }
}

TEST(ContentCsvTest, ParsesHandWrittenRows) {
  std::istringstream input(
      "name,popular,cdn,day_count,hour,addresses\n"
      "a.example.com,1,0,2,0,1.2.3.4|5.6.7.8\n"
      "a.example.com,1,0,2,5,1.2.3.4\n"
      "b.example.net,0,1,2,0,9.9.9.9\n");
  const auto traces = read_content_csv(input);
  ASSERT_EQ(traces.size(), 2u);
  EXPECT_EQ(traces[0].name().to_dns(), "a.example.com");
  EXPECT_TRUE(traces[0].popular());
  EXPECT_EQ(traces[0].snapshots().size(), 2u);
  EXPECT_EQ(traces[0].snapshots()[0].addresses.size(), 2u);
  EXPECT_TRUE(traces[1].cdn_backed());
}

TEST(ContentCsvTest, RejectsMalformedRows) {
  std::istringstream bad_fields("a.com,1,0,2,0\n");
  EXPECT_THROW((void)read_content_csv(bad_fields), std::invalid_argument);
  std::istringstream bad_order(
      "a.com,1,0,2,5,1.2.3.4\n"
      "a.com,1,0,2,3,5.6.7.8\n");
  EXPECT_THROW((void)read_content_csv(bad_order), std::invalid_argument);
}

TEST(ContentCsvTest, RejectsNonFiniteHours) {
  const auto read = [](std::istream& in) { return read_content_csv(in); };
  for (const char* hour : {"nan", "inf", "-inf"}) {
    const std::string rows = std::string("a.com,1,0,2,0,1.2.3.4\n") +
                             "a.com,1,0,2," + hour + ",5.6.7.8\n";
    EXPECT_EQ(parse_error(rows, read).rfind("trace_io: bad hour", 0), 0u)
        << rows;
  }
}

}  // namespace
}  // namespace lina::mobility
