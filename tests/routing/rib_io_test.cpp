#include "lina/routing/rib_io.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "lina/routing/synthetic_internet.hpp"

namespace lina::routing {
namespace {

Rib sample_rib() {
  Rib rib;
  rib.add(RibRoute{.prefix = net::Prefix::parse("1.0.0.0/16"),
                   .as_path = AsPath({7, 12, 99}),
                   .route_class = RouteClass::kCustomer,
                   .local_pref = 0,
                   .med = 3});
  rib.add(RibRoute{.prefix = net::Prefix::parse("1.0.0.0/16"),
                   .as_path = AsPath({8, 99}),
                   .route_class = RouteClass::kPeer,
                   .local_pref = 0,
                   .med = 0});
  rib.add(RibRoute{.prefix = net::Prefix::parse("2.5.0.0/16"),
                   .as_path = AsPath({9, 44, 55}),
                   .route_class = RouteClass::kProvider,
                   .local_pref = 100,
                   .med = 9});
  return rib;
}

TEST(RibIoTest, RoundTrip) {
  const Rib original = sample_rib();
  std::stringstream buffer;
  write_rib(buffer, original);
  const Rib parsed = read_rib(buffer);
  EXPECT_EQ(parsed.prefix_count(), original.prefix_count());
  EXPECT_EQ(parsed.route_count(), original.route_count());
  const auto best = parsed.best(net::Prefix::parse("1.0.0.0/16"));
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->route_class, RouteClass::kCustomer);
  EXPECT_EQ(best->as_path, AsPath({7, 12, 99}));
  EXPECT_EQ(best->med, 3u);
}

TEST(RibIoTest, ParsesHandWrittenDump) {
  std::istringstream input(
      "PREFIX|NEXT_HOP_AS|LOCAL_PREF|MED|REL|AS_PATH\n"
      "10.0.0.0/8|701|0|5|peer|701 3356 15169\n");
  const Rib rib = read_rib(input);
  EXPECT_EQ(rib.route_count(), 1u);
  const auto best = rib.best(net::Prefix::parse("10.0.0.0/8"));
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->port(), 701u);
  EXPECT_EQ(best->route_class, RouteClass::kPeer);
}

TEST(RibIoTest, RejectsMalformedRows) {
  const auto expect_throw = [](const char* text) {
    std::istringstream input(text);
    EXPECT_THROW((void)read_rib(input), std::invalid_argument) << text;
  };
  expect_throw("1.0.0.0/16|7|0|3|customer\n");            // missing field
  expect_throw("1.0.0.0/16|7|0|3|friend|7 99\n");         // bad relationship
  expect_throw("1.0.0.0/99|7|0|3|customer|7 99\n");       // bad prefix
  expect_throw("1.0.0.0/16|7|0|3|customer|\n");           // empty path
  expect_throw("1.0.0.0/16|8|0|3|customer|7 99\n");       // hop mismatch
  expect_throw("1.0.0.0/16|7|0|3|customer|7 99 7\n");     // looped path
}

TEST(RibIoTest, MalformedRowErrorsNameTheDumpAndLine) {
  // The header counts as line 1, the good row as line 2; the bad row —
  // non-numeric MED — is line 3 and the error must say so.
  std::istringstream input(
      "PREFIX|NEXT_HOP_AS|LOCAL_PREF|MED|REL|AS_PATH\n"
      "10.0.0.0/8|701|0|5|peer|701 3356\n"
      "10.1.0.0/16|701|0|lots|peer|701 3356\n");
  try {
    (void)read_rib(input, "rib-2026-08.dump");
    FAIL() << "malformed MED must throw";
  } catch (const RibIoError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("rib-2026-08.dump:line 3"), std::string::npos)
        << what;
    EXPECT_NE(what.find("med"), std::string::npos) << what;
    EXPECT_NE(what.find("lots"), std::string::npos) << what;
  }
}

TEST(RibIoTest, FieldCountErrorsReportTheCount) {
  std::istringstream input("1.0.0.0/16|7|0|3\n");
  try {
    (void)read_rib(input);
    FAIL() << "short row must throw";
  } catch (const RibIoError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("<rib>:line 1"), std::string::npos) << what;
    EXPECT_NE(what.find("6 |-separated fields, got 4"), std::string::npos)
        << what;
  }
}

TEST(RibIoTest, NextHopMismatchErrorIsNamed) {
  std::istringstream input("1.0.0.0/16|8|0|3|customer|7 99\n");
  try {
    (void)read_rib(input, "mismatch.dump");
    FAIL() << "next-hop mismatch must throw";
  } catch (const RibIoError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("mismatch.dump:line 1"), std::string::npos) << what;
    EXPECT_NE(what.find("NEXT_HOP_AS"), std::string::npos) << what;
    // The offending row rides along for grep-ability.
    EXPECT_NE(what.find("1.0.0.0/16|8|0|3|customer|7 99"),
              std::string::npos)
        << what;
  }
}

TEST(RibIoTest, RibIoErrorIsStillAnInvalidArgument) {
  // Callers that predate RibIoError catch std::invalid_argument; the
  // refinement must not break them.
  std::istringstream input("garbage row\n");
  EXPECT_THROW((void)read_rib(input), std::invalid_argument);
}

TEST(RibIoTest, VantageFromDumpBuildsWorkingFib) {
  std::stringstream buffer;
  write_rib(buffer, sample_rib());
  const VantageRouter router =
      vantage_from_dump(buffer, "dump-router", 42, {0.0, 0.0});
  EXPECT_EQ(router.name(), "dump-router");
  EXPECT_EQ(router.fib().size(), 2u);
  const FrozenFib fib = router.fib().freeze();
  EXPECT_EQ(fib.port_for(net::Ipv4Address::parse("1.0.5.5")), 7u);
  EXPECT_EQ(fib.port_for(net::Ipv4Address::parse("2.5.9.9")), 9u);
}

TEST(RibIoTest, SyntheticVantageRoundTrip) {
  // The full pipeline: dump a synthetic vantage's RIB, re-read it, and
  // verify the rebuilt router forwards identically.
  routing::SyntheticInternetConfig config;
  config.topology.tier1_count = 5;
  config.topology.tier2_count = 12;
  config.topology.stub_count = 60;
  const SyntheticInternet internet(config);
  const VantageRouter& original = internet.vantage("Oregon-1");

  std::stringstream buffer;
  write_rib(buffer, original.rib());
  const VantageRouter rebuilt = vantage_from_dump(
      buffer, std::string(original.name()), original.as_number(),
      original.location());

  EXPECT_EQ(rebuilt.fib().size(), original.fib().size());
  const FrozenFib rebuilt_fib = rebuilt.fib().freeze();
  const FrozenFib original_fib = original.fib().freeze();
  stats::Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    const auto as =
        internet.edge_ases()[rng.index(internet.edge_ases().size())];
    const auto addr = internet.random_address_in(as, rng);
    EXPECT_EQ(rebuilt_fib.port_for(addr), original_fib.port_for(addr));
  }
}

}  // namespace
}  // namespace lina::routing
