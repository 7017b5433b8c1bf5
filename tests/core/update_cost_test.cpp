#include "lina/core/update_cost.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "../support/fixtures.hpp"
#include "../support/reference_best_port.hpp"
#include "lina/exec/thread_pool.hpp"
#include "lina/stats/summary.hpp"

namespace lina::core {
namespace {

using lina::testing::shared_content_catalog;
using lina::testing::shared_device_traces;
using lina::testing::shared_internet;
using strategy::StrategyKind;

constexpr StrategyKind kAllKinds[] = {StrategyKind::kBestPort,
                                      StrategyKind::kControlledFlooding,
                                      StrategyKind::kHistoryUnion};

/// Independent reference for the §3.3.1 snapshot replay: a plain loop per
/// router and per trace over the reference trie, with std::set port sets and
/// the strategy rules written out here (nothing from lina::strategy beyond
/// the kind enum).
template <typename Traces>
std::vector<RouterUpdateStats> reference_update_cost(
    std::span<const routing::VantageRouter> routers, const Traces& traces,
    StrategyKind kind) {
  std::vector<RouterUpdateStats> out;
  for (const routing::VantageRouter& router : routers) {
    const auto fib = lina::testing::reference_trie(router.fib());
    RouterUpdateStats tally{std::string(router.name()), 0, 0};
    for (const auto& trace : traces) {
      std::set<routing::Port> ports;
      std::set<std::uint32_t> history;
      bool first = true;
      for (const auto& snapshot : trace.snapshots()) {
        std::set<routing::Port> next;
        if (kind == StrategyKind::kBestPort) {
          const auto best =
              lina::testing::reference_best_entry(fib, snapshot.addresses);
          if (best) next.insert(best->port);
        } else {
          // Flooding forwards on the current set's ports, history-union on
          // the ports of every address seen so far.
          if (kind == StrategyKind::kControlledFlooding) history.clear();
          for (const net::Ipv4Address addr : snapshot.addresses) {
            history.insert(addr.value());
          }
          for (const std::uint32_t raw : history) {
            const auto hit = fib.lookup(net::Ipv4Address(raw));
            if (hit) next.insert(hit->second.port);
          }
        }
        if (!first) {
          ++tally.events;
          if (next != ports) ++tally.updates;
        }
        ports = std::move(next);
        first = false;
      }
    }
    out.push_back(std::move(tally));
  }
  return out;
}

void expect_same_tallies(const std::vector<RouterUpdateStats>& got,
                         const std::vector<RouterUpdateStats>& want,
                         StrategyKind kind) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t r = 0; r < want.size(); ++r) {
    EXPECT_EQ(got[r].router, want[r].router);
    EXPECT_EQ(got[r].events, want[r].events)
        << want[r].router << " " << strategy::strategy_name(kind);
    EXPECT_EQ(got[r].updates, want[r].updates)
        << want[r].router << " " << strategy::strategy_name(kind);
  }
}

/// Address-set series: series[i][t] is trace i's snapshot t.
using Series = std::vector<std::vector<std::vector<net::Ipv4Address>>>;

/// Hand-made address sets covering the replay's edge cases, as snapshot
/// sequences (each becomes one content and one multihomed trace).
struct EdgeCaseSets {
  Series series;
  net::Ipv4Address tie_a, tie_b;  // equal class, path and MED at router 0
};

EdgeCaseSets edge_case_sets() {
  const auto routers = shared_internet().vantages();
  std::vector<routing::FrozenFib> fibs;
  for (const routing::VantageRouter& r : routers) {
    fibs.push_back(r.fib().freeze());
  }
  // An address no vantage router routes.
  std::optional<net::Ipv4Address> unrouted;
  for (const char* candidate : {"0.0.0.1", "127.0.0.1", "240.0.0.1",
                                "255.255.255.254"}) {
    const auto addr = net::Ipv4Address::parse(candidate);
    if (std::none_of(fibs.begin(), fibs.end(), [&](const auto& fib) {
          return fib.entry_for(addr) != nullptr;
        })) {
      unrouted = addr;
      break;
    }
  }
  EXPECT_TRUE(unrouted.has_value()) << "no unrouted probe address";
  const net::Ipv4Address u1 = unrouted.value_or(net::Ipv4Address(1));
  const net::Ipv4Address u2(u1.value() + 1);

  // Two addresses whose router-0 entries tie on class, path length and MED
  // but leave on different ports.
  std::map<std::tuple<routing::RouteClass, std::uint32_t, std::uint32_t>,
           std::pair<net::Ipv4Address, routing::Port>>
      seen;
  std::optional<std::pair<net::Ipv4Address, net::Ipv4Address>> tie;
  routers[0].fib().visit([&](const net::Prefix& prefix,
                             const routing::FibEntry&) {
    if (tie) return;
    const net::Ipv4Address addr = prefix.network();
    const routing::FibEntry* hit = fibs[0].entry_for(addr);
    if (hit == nullptr) return;
    const routing::FibEntry& e = *hit;
    const auto key = std::make_tuple(e.route_class, e.path_length, e.med);
    const auto [it, inserted] = seen.try_emplace(key, addr, e.port);
    if (!inserted && it->second.second != e.port) {
      tie.emplace(it->second.first, addr);
    }
  });
  EXPECT_TRUE(tie.has_value()) << "no tied entry pair at router 0";

  stats::Rng rng(5);
  const auto& edges = shared_internet().edge_ases();
  const auto in = [&](std::size_t i) {
    return shared_internet().random_address_in(edges[i % edges.size()], rng);
  };
  const net::Ipv4Address a = in(0), b = in(7), c = in(13), d = in(21);
  EdgeCaseSets sets;
  sets.tie_a = tie ? tie->first : a;
  sets.tie_b = tie ? tie->second : b;
  sets.series = {
      {{a}, {}, {a, b}, {}},                         // empty snapshots
      {{a, c}, {u1, u2}, {u1}, {c}},                 // all unroutable
      {{b, d}},                                      // single snapshot
      {{sets.tie_a}, {sets.tie_a, sets.tie_b}, {sets.tie_b},
       {sets.tie_a, sets.tie_b}, {sets.tie_a}},      // tied entries
      {{a}, {b}, {a}, {b}, {a}, {c}, {a}},           // A -> B -> A revisits
      {{d, a}, {d}, {a, b, c, d}, {b}},              // addresses shared
  };
  return sets;
}

/// One content trace per series, named `<stem><i>.example`.
std::vector<mobility::ContentTrace> content_traces(const Series& series,
                                                  const std::string& stem) {
  std::vector<mobility::ContentTrace> traces;
  for (std::size_t i = 0; i < series.size(); ++i) {
    traces.emplace_back(
        names::ContentName::from_dns(stem + std::to_string(i) + ".example"),
        true, false, 1);
    for (std::size_t t = 0; t < series[i].size(); ++t) {
      traces.back().observe(static_cast<double>(t), series[i][t]);
    }
  }
  return traces;
}

/// One multihomed device trace per series.
std::vector<mobility::MultihomedDeviceTrace> multihomed_traces(
    const Series& series) {
  std::vector<mobility::MultihomedDeviceTrace> traces;
  for (std::size_t i = 0; i < series.size(); ++i) {
    traces.emplace_back(static_cast<std::uint32_t>(i));
    for (std::size_t t = 0; t < series[i].size(); ++t) {
      traces.back().observe(static_cast<double>(t), series[i][t]);
    }
  }
  return traces;
}

std::vector<mobility::ContentTrace> edge_case_content_traces() {
  return content_traces(edge_case_sets().series, "edge");
}

std::vector<mobility::MultihomedDeviceTrace> edge_case_multihomed_traces() {
  return multihomed_traces(edge_case_sets().series);
}

/// Address occurrences per block of the content index (update_cost.cpp).
constexpr std::size_t kBlockOccurrences = std::size_t{1} << 16;

template <typename Trace>
std::size_t occurrences(const Trace& trace) {
  std::size_t n = 0;
  for (const auto& snapshot : trace.snapshots()) {
    n += snapshot.addresses.size();
  }
  return n;
}

/// Series that span several index blocks: traces [0, first_group) hold
/// exactly 2^16 address occurrences, so a block closes exactly on the
/// boundary (one of them has a single, empty snapshot); the next trace
/// alone is larger than a block; the edge cases and one more empty
/// snapshot trail in a partial block. Every snapshot lists distinct
/// addresses and differs from its predecessor, so each listed address is
/// one occurrence.
struct BlockSeries {
  Series series;
  std::size_t first_group = 0;
};

BlockSeries block_spanning_series() {
  stats::Rng rng(9);
  const auto& edges = shared_internet().edge_ases();
  std::vector<net::Ipv4Address> pool;
  for (std::size_t i = 0; i < 24; ++i) {
    pool.push_back(shared_internet().random_address_in(
        edges[(5 * i) % edges.size()], rng));
  }
  // 1-12 distinct pool addresses, never the same set twice in a row.
  const auto next_snapshot = [&](const std::vector<net::Ipv4Address>& prev) {
    std::vector<net::Ipv4Address> out;
    do {
      std::set<net::Ipv4Address> picked;
      const std::size_t k = 1 + rng.index(12);
      while (picked.size() < k) picked.insert(pool[rng.index(pool.size())]);
      out.assign(picked.begin(), picked.end());
    } while (out == prev);
    return out;
  };
  const auto count = [](const auto& snapshots) {
    std::size_t n = 0;
    for (const auto& snapshot : snapshots) n += snapshot.size();
    return n;
  };

  BlockSeries out;
  std::size_t held = 0;
  const auto add = [&](std::vector<std::vector<net::Ipv4Address>> s) {
    held += count(s);
    out.series.push_back(std::move(s));
  };
  add({{}});
  constexpr std::size_t kSnapshots = 300;
  while (held + kSnapshots * 12 < kBlockOccurrences) {
    std::vector<std::vector<net::Ipv4Address>> s;
    for (std::size_t i = 0; i < kSnapshots; ++i) {
      s.push_back(next_snapshot(s.empty() ? std::vector<net::Ipv4Address>{}
                                          : s.back()));
    }
    add(std::move(s));
  }
  // Top the group up to exactly 2^16 with one-address snapshots.
  std::vector<std::vector<net::Ipv4Address>> filler;
  for (std::size_t i = held; i < kBlockOccurrences; ++i) {
    filler.push_back({pool[i % 2]});
  }
  add(std::move(filler));
  out.first_group = out.series.size();

  std::vector<std::vector<net::Ipv4Address>> large;
  while (count(large) <= kBlockOccurrences + 1000) {
    large.push_back(
        next_snapshot(large.empty() ? std::vector<net::Ipv4Address>{}
                                    : large.back()));
  }
  out.series.push_back(std::move(large));
  for (auto& s : edge_case_sets().series) out.series.push_back(std::move(s));
  out.series.push_back({{}});
  return out;
}

TEST(RouterUpdateStatsTest, RateHandlesZeroEvents) {
  const RouterUpdateStats empty{"r", 0, 0};
  EXPECT_DOUBLE_EQ(empty.rate(), 0.0);
  const RouterUpdateStats half{"r", 10, 5};
  EXPECT_DOUBLE_EQ(half.rate(), 0.5);
}

TEST(DeviceUpdateCostTest, OneStatsRowPerRouter) {
  const DeviceUpdateCostEvaluator evaluator(shared_internet().vantages());
  const auto stats = evaluator.evaluate(shared_device_traces());
  ASSERT_EQ(stats.size(), shared_internet().vantages().size());
  for (const RouterUpdateStats& s : stats) {
    EXPECT_FALSE(s.router.empty());
    EXPECT_LE(s.updates, s.events);
  }
}

TEST(DeviceUpdateCostTest, AllRoutersSeeSameEventCount) {
  const DeviceUpdateCostEvaluator evaluator(shared_internet().vantages());
  const auto stats = evaluator.evaluate(shared_device_traces());
  for (const RouterUpdateStats& s : stats) {
    EXPECT_EQ(s.events, stats.front().events);
  }
}

TEST(DeviceUpdateCostTest, Figure8Shape) {
  // Paper Figure 8: some routers see double-digit update rates, the median
  // router is low single digits, and distant edge routers are untouched.
  const DeviceUpdateCostEvaluator evaluator(shared_internet().vantages());
  const auto stats = evaluator.evaluate(shared_device_traces());
  double max_rate = 0.0;
  for (const RouterUpdateStats& s : stats) {
    max_rate = std::max(max_rate, s.rate());
    if (s.router == "Mauritius" || s.router == "Tokyo") {
      EXPECT_LT(s.rate(), 0.01) << s.router;
    }
  }
  EXPECT_GT(max_rate, 0.05);
  EXPECT_LT(max_rate, 0.5);
}

TEST(DeviceUpdateCostTest, SameAsMovesNeverUpdate) {
  // A trace that never leaves one AS cannot displace any router.
  stats::Rng rng(1);
  const auto as = shared_internet().edge_ases()[0];
  mobility::DeviceTrace trace(0, 1);
  double clock = 0.0;
  net::Ipv4Address addr = shared_internet().random_address_in(as, rng);
  for (int i = 0; i < 6; ++i) {
    trace.append({clock, 4.0, addr,
                  shared_internet().prefix_of(addr), as, false});
    clock += 4.0;
    addr = shared_internet().random_address_in(as, rng);
  }
  const std::vector<mobility::DeviceTrace> traces{std::move(trace)};
  const DeviceUpdateCostEvaluator evaluator(shared_internet().vantages());
  for (const RouterUpdateStats& s : evaluator.evaluate(traces)) {
    EXPECT_EQ(s.updates, 0u) << s.router;
  }
}

TEST(DeviceUpdateCostTest, PerDayEventsSumToTotal) {
  const DeviceUpdateCostEvaluator evaluator(shared_internet().vantages());
  const auto total = evaluator.evaluate(shared_device_traces());
  std::size_t events = 0, updates = 0;
  for (std::size_t day = 0; day < 7; ++day) {
    const auto daily = evaluator.evaluate_day(shared_device_traces(), day);
    events += daily[0].events;
    updates += daily[0].updates;
  }
  EXPECT_EQ(events, total[0].events);
  EXPECT_EQ(updates, total[0].updates);
}

TEST(DeviceUpdateCostTest, DayToDayRatesAreStable) {
  // §6.2 sensitivity: per-day update rates vary little (paper stddev
  // < 0.5% absolute over 20 days).
  const DeviceUpdateCostEvaluator evaluator(shared_internet().vantages());
  stats::RunningStats oregon;
  for (std::size_t day = 0; day < 7; ++day) {
    const auto daily = evaluator.evaluate_day(shared_device_traces(), day);
    oregon.add(daily.front().rate());
  }
  EXPECT_LT(oregon.stddev(), 0.03);
}

TEST(ContentUpdateCostTest, FloodingAtLeastBestPort) {
  const ContentUpdateCostEvaluator evaluator(shared_internet().vantages());
  const auto flooding = evaluator.evaluate(
      shared_content_catalog().popular,
      strategy::StrategyKind::kControlledFlooding);
  const auto best = evaluator.evaluate(shared_content_catalog().popular,
                                       strategy::StrategyKind::kBestPort);
  ASSERT_EQ(flooding.size(), best.size());
  for (std::size_t i = 0; i < flooding.size(); ++i) {
    EXPECT_EQ(flooding[i].events, best[i].events);
    EXPECT_GE(flooding[i].updates, best[i].updates) << flooding[i].router;
  }
}

TEST(ContentUpdateCostTest, PopularExceedsUnpopular) {
  // Figure 11(b) vs 11(c): unpopular content barely updates routers.
  const ContentUpdateCostEvaluator evaluator(shared_internet().vantages());
  const auto popular = evaluator.evaluate(
      shared_content_catalog().popular,
      strategy::StrategyKind::kControlledFlooding);
  const auto unpopular = evaluator.evaluate(
      shared_content_catalog().unpopular,
      strategy::StrategyKind::kControlledFlooding);
  double popular_max = 0.0, unpopular_max = 0.0;
  for (const auto& s : popular) popular_max = std::max(popular_max, s.rate());
  for (const auto& s : unpopular) {
    unpopular_max = std::max(unpopular_max, s.rate());
  }
  EXPECT_GT(popular_max, unpopular_max);
}

TEST(ContentUpdateCostTest, HistoryUnionCheapestOnRevisitHeavyTraces) {
  // §3.3.3: for a name flitting between two fixed locations, history-union
  // update cost approaches zero while best-port keeps paying.
  mobility::ContentTrace trace(names::ContentName::from_dns("flip.example"),
                               true, false, 1);
  stats::Rng rng(2);
  const auto a = shared_internet().random_address_in(
      shared_internet().edge_ases()[0], rng);
  const auto b = shared_internet().random_address_in(
      shared_internet().edge_ases()[1], rng);
  std::vector<net::Ipv4Address> set_a{a}, set_b{b};
  trace.observe(0.0, set_a);
  for (int t = 1; t < 20; ++t) {
    trace.observe(static_cast<double>(t), (t % 2 == 0) ? set_a : set_b);
  }
  const std::vector<mobility::ContentTrace> traces{std::move(trace)};
  const ContentUpdateCostEvaluator evaluator(shared_internet().vantages());
  const auto history = evaluator.evaluate(
      traces, strategy::StrategyKind::kHistoryUnion);
  const auto best =
      evaluator.evaluate(traces, strategy::StrategyKind::kBestPort);
  for (std::size_t i = 0; i < history.size(); ++i) {
    EXPECT_LE(history[i].updates, 1u) << history[i].router;
    EXPECT_LE(history[i].updates, best[i].updates + 1);
  }
}

TEST(ContentUpdateCostTest, EventCountsMatchTraceEvents) {
  const ContentUpdateCostEvaluator evaluator(shared_internet().vantages());
  std::size_t expected = 0;
  for (const auto& trace : shared_content_catalog().unpopular) {
    expected += trace.events().size();
  }
  const auto stats = evaluator.evaluate(shared_content_catalog().unpopular,
                                        strategy::StrategyKind::kBestPort);
  for (const auto& s : stats) EXPECT_EQ(s.events, expected);
}

TEST(ContentUpdateCostTest, MatchesReferenceOnCatalogSubset) {
  std::vector<mobility::ContentTrace> traces;
  const auto& catalog = shared_content_catalog();
  for (const auto* part : {&catalog.popular, &catalog.unpopular}) {
    const std::size_t n = std::min<std::size_t>(part->size(), 20);
    traces.insert(traces.end(), part->begin(), part->begin() + n);
  }
  const auto routers = shared_internet().vantages();
  const ContentUpdateCostEvaluator evaluator(routers);
  for (const StrategyKind kind : kAllKinds) {
    expect_same_tallies(evaluator.evaluate(traces, kind),
                        reference_update_cost(routers, traces, kind), kind);
  }
}

TEST(ContentUpdateCostTest, MatchesReferenceOnEdgeCases) {
  const auto traces = edge_case_content_traces();
  const auto routers = shared_internet().vantages();
  const ContentUpdateCostEvaluator evaluator(routers);
  for (const StrategyKind kind : kAllKinds) {
    const auto got = evaluator.evaluate(traces, kind);
    expect_same_tallies(got, reference_update_cost(routers, traces, kind),
                        kind);
    // 3 + 3 + 0 + 4 + 6 + 3 events: the single-snapshot trace has none.
    for (const RouterUpdateStats& s : got) EXPECT_EQ(s.events, 19u);
  }
  // The tied pair never moves best-port at router 0: equal preference up
  // to the port, so the lower port wins in every snapshot holding both.
  const std::vector<mobility::ContentTrace> tie_only{traces[3]};
  const auto tie = evaluator.evaluate(tie_only, StrategyKind::kBestPort);
  const auto flood =
      evaluator.evaluate(tie_only, StrategyKind::kControlledFlooding);
  EXPECT_EQ(flood[0].updates, 4u);
  EXPECT_EQ(tie[0].updates, 2u);
}

TEST(ContentUpdateCostTest, EmptyInputsYieldZeroTallies) {
  const ContentUpdateCostEvaluator evaluator(shared_internet().vantages());
  for (const StrategyKind kind : kAllKinds) {
    const auto stats = evaluator.evaluate({}, kind);
    ASSERT_EQ(stats.size(), shared_internet().vantages().size());
    for (const RouterUpdateStats& s : stats) {
      EXPECT_EQ(s.events, 0u);
      EXPECT_EQ(s.updates, 0u);
    }
  }
}

TEST(ContentUpdateCostTest, BlockIndexMatchesReferenceAtAnyThreadCount) {
  lina::testing::ThreadCountGuard guard;
  const BlockSeries input = block_spanning_series();
  const auto content = content_traces(input.series, "block");
  const auto multihomed = multihomed_traces(input.series);
  std::size_t group = 0;
  for (std::size_t i = 0; i < input.first_group; ++i) {
    group += occurrences(content[i]);
  }
  ASSERT_EQ(group, kBlockOccurrences);
  ASSERT_GT(occurrences(content[input.first_group]), kBlockOccurrences);
  ASSERT_TRUE(content.front().snapshots().front().addresses.empty());

  // Four routers keep the uncached reference affordable under the
  // sanitizers; the blocks, not the routers, are under test here.
  const auto routers = shared_internet().vantages().subspan(0, 4);
  const ContentUpdateCostEvaluator content_evaluator(routers);
  const MultihomedDeviceUpdateCostEvaluator multihomed_evaluator(routers);
  for (const StrategyKind kind : kAllKinds) {
    const auto want = reference_update_cost(routers, content, kind);
    for (const std::size_t threads : {1, 2, 4}) {
      exec::set_default_threads(threads);
      SCOPED_TRACE(threads);
      expect_same_tallies(content_evaluator.evaluate(content, kind), want,
                          kind);
      expect_same_tallies(multihomed_evaluator.evaluate(multihomed, kind),
                          want, kind);
      // Zero traces: one empty tally per router, no throw.
      for (const auto& stats :
           {content_evaluator.evaluate({}, kind),
            multihomed_evaluator.evaluate({}, kind)}) {
        ASSERT_EQ(stats.size(), routers.size());
        for (const RouterUpdateStats& s : stats) {
          EXPECT_EQ(s.events, 0u);
          EXPECT_EQ(s.updates, 0u);
        }
      }
    }
  }
}

TEST(MultihomedUpdateCostTest, MatchesReferenceOnEdgeCasesAndViews) {
  auto traces = edge_case_multihomed_traces();
  const std::span<const mobility::DeviceTrace> device =
      shared_device_traces();
  const auto views = mobility::multihomed_views(
      device.subspan(0, std::min<std::size_t>(device.size(), 12)), 1.0);
  traces.insert(traces.end(), views.begin(), views.end());
  const auto routers = shared_internet().vantages();
  const MultihomedDeviceUpdateCostEvaluator evaluator(routers);
  for (const StrategyKind kind : kAllKinds) {
    expect_same_tallies(evaluator.evaluate(traces, kind),
                        reference_update_cost(routers, traces, kind), kind);
  }
}

}  // namespace
}  // namespace lina::core
