#include "lina/mobility/content_workload.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <set>

#include "lina/stats/cdf.hpp"

namespace lina::mobility {
namespace {

const routing::SyntheticInternet& internet() {
  static const routing::SyntheticInternet instance = [] {
    routing::SyntheticInternetConfig config;
    config.topology.tier1_count = 8;
    config.topology.tier2_count = 30;
    config.topology.stub_count = 250;
    return routing::SyntheticInternet(config);
  }();
  return instance;
}

ContentWorkloadConfig small_config() {
  ContentWorkloadConfig config;
  config.popular_domains = 60;
  config.unpopular_domains = 60;
  config.days = 5;
  return config;
}

const ContentCatalog& small_catalog() {
  static const ContentCatalog catalog =
      ContentWorkloadGenerator(internet(), small_config()).generate();
  return catalog;
}

TEST(ContentWorkloadTest, CdnFootprintSpansRegions) {
  const ContentWorkloadGenerator gen(internet(), small_config());
  EXPECT_GE(gen.cdn_pop_ases().size(), 24u);
  // PoPs are distinct stub ASes announcing prefixes.
  std::set<topology::AsId> distinct(gen.cdn_pop_ases().begin(),
                                    gen.cdn_pop_ases().end());
  EXPECT_EQ(distinct.size(), gen.cdn_pop_ases().size());
  for (const topology::AsId as : gen.cdn_pop_ases()) {
    EXPECT_FALSE(internet().prefixes_of(as).empty());
  }
}

TEST(ContentWorkloadTest, CatalogShape) {
  const ContentCatalog& catalog = small_catalog();
  // Popular: >= 1 name per domain (apex) plus subdomains.
  EXPECT_GT(catalog.popular.size(), 60u * 5u);
  // Unpopular: apex plus at most two subdomains.
  EXPECT_GE(catalog.unpopular.size(), 60u);
  EXPECT_LE(catalog.unpopular.size(), 60u * 3u);
}

TEST(ContentWorkloadTest, NamesAreHierarchicalPerDomain) {
  const ContentCatalog& catalog = small_catalog();
  std::size_t subdomains = 0;
  for (const ContentTrace& trace : catalog.popular) {
    EXPECT_TRUE(trace.popular());
    const auto& name = trace.name();
    ASSERT_GE(name.depth(), 2u);
    EXPECT_EQ(name.components()[0], "com");
    if (name.depth() == 3) ++subdomains;
  }
  EXPECT_GT(subdomains, 0u);
}

TEST(ContentWorkloadTest, EverySnapshotAddressIsAnnounced) {
  const ContentCatalog& catalog = small_catalog();
  for (const ContentTrace& trace : catalog.popular) {
    for (const ContentSnapshot& snapshot : trace.snapshots()) {
      for (const net::Ipv4Address addr : snapshot.addresses) {
        EXPECT_NO_THROW((void)internet().owner_of(addr));
      }
    }
  }
}

TEST(ContentWorkloadTest, InitialSnapshotNonEmpty) {
  const ContentCatalog& catalog = small_catalog();
  for (const ContentTrace& trace : catalog.popular) {
    ASSERT_FALSE(trace.snapshots().empty());
    EXPECT_FALSE(trace.snapshots().front().addresses.empty());
    EXPECT_DOUBLE_EQ(trace.snapshots().front().hour, 0.0);
  }
}

TEST(ContentWorkloadTest, CdnBackedNamesHaveBiggerSets) {
  const ContentCatalog& catalog = small_catalog();
  double cdn_sum = 0.0, cdn_count = 0.0, origin_sum = 0.0, origin_count = 0.0;
  for (const ContentTrace& trace : catalog.popular) {
    const double size =
        static_cast<double>(trace.snapshots().front().addresses.size());
    if (trace.cdn_backed()) {
      cdn_sum += size;
      ++cdn_count;
    } else {
      origin_sum += size;
      ++origin_count;
    }
  }
  ASSERT_GT(cdn_count, 0.0);
  ASSERT_GT(origin_count, 0.0);
  EXPECT_GT(cdn_sum / cdn_count, 2.0 * origin_sum / origin_count);
}

TEST(ContentWorkloadTest, CdnFractionsMatchConfig) {
  // 24.5% of popular vs 1.6% of unpopular domains are CDN-delegated (§7.2):
  // count apex names (depth 2).
  const ContentCatalog& catalog = small_catalog();
  const auto apex_cdn_share = [](const std::vector<ContentTrace>& traces) {
    double cdn = 0.0, total = 0.0;
    for (const ContentTrace& trace : traces) {
      if (trace.name().depth() != 2) continue;
      ++total;
      if (trace.cdn_backed()) ++cdn;
    }
    return cdn / total;
  };
  EXPECT_NEAR(apex_cdn_share(catalog.popular), 0.245, 0.15);
  EXPECT_LT(apex_cdn_share(catalog.unpopular), 0.1);
}

TEST(ContentWorkloadTest, PopularMoreDynamicThanUnpopular) {
  const ContentCatalog& catalog = small_catalog();
  stats::EmpiricalCdf popular_events, unpopular_events;
  for (const ContentTrace& trace : catalog.popular) {
    popular_events.add(trace.events_per_day());
  }
  for (const ContentTrace& trace : catalog.unpopular) {
    unpopular_events.add(trace.events_per_day());
  }
  EXPECT_GT(popular_events.quantile(0.5), unpopular_events.quantile(0.5));
  EXPECT_GT(popular_events.quantile(0.5), 0.5);
  EXPECT_LT(unpopular_events.quantile(0.5), 0.5);
}

TEST(ContentWorkloadTest, EventRateBoundedByHourlySampling) {
  const ContentCatalog& catalog = small_catalog();
  for (const ContentTrace& trace : catalog.popular) {
    EXPECT_LE(trace.events_per_day(), 24.0);
  }
}

TEST(ContentWorkloadTest, DeterministicForSeed) {
  const ContentCatalog a =
      ContentWorkloadGenerator(internet(), small_config()).generate();
  const ContentCatalog b =
      ContentWorkloadGenerator(internet(), small_config()).generate();
  ASSERT_EQ(a.popular.size(), b.popular.size());
  for (std::size_t i = 0; i < a.popular.size(); ++i) {
    EXPECT_EQ(a.popular[i].name(), b.popular[i].name());
    EXPECT_EQ(a.popular[i].snapshots().size(),
              b.popular[i].snapshots().size());
  }
}

TEST(ContentWorkloadTest, UnpopularDomainsHaveFewSubdomains) {
  const ContentCatalog& catalog = small_catalog();
  std::map<std::string, std::size_t> subs_per_domain;
  for (const ContentTrace& trace : catalog.unpopular) {
    if (trace.name().depth() == 3) {
      ++subs_per_domain[std::string(trace.name().components()[1])];
    }
  }
  for (const auto& [domain, count] : subs_per_domain) {
    EXPECT_LE(count, 2u) << domain;
  }
}

/// splitmix64 finalizer: the digest below folds every catalog field
/// through it.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t catalog_digest(const ContentCatalog& catalog) {
  std::uint64_t h = 0;
  const auto fold = [&h](std::uint64_t v) { h = mix(h ^ v); };
  for (const auto* traces : {&catalog.popular, &catalog.unpopular}) {
    fold(traces->size());
    for (const ContentTrace& trace : *traces) {
      for (const char c : trace.name().to_dns()) {
        fold(static_cast<unsigned char>(c));
      }
      fold(trace.popular() ? 1 : 0);
      fold(trace.cdn_backed() ? 1 : 0);
      fold(trace.day_count());
      fold(trace.snapshots().size());
      for (const auto& snapshot : trace.snapshots()) {
        fold(std::bit_cast<std::uint64_t>(snapshot.hour));
        fold(snapshot.addresses.size());
        for (const net::Ipv4Address addr : snapshot.addresses) {
          fold(addr.value());
        }
      }
    }
  }
  return h;
}

// Pins the whole generated catalog bit for bit: names, flags, snapshot
// hours and address sets. Any change to the generator's draw sequence,
// the vantage merger's nearest-site order or the snapshot storage shows
// here, not only in the bench baselines. With the default 74 vantages
// every replica of this small Internet is visible, so a second catalog
// measured from 6 vantages pins the merger's partial views too.
TEST(ContentWorkloadTest, CatalogDigestPinned) {
  ContentWorkloadConfig config;
  config.popular_domains = 40;
  config.unpopular_domains = 40;
  config.days = 3;
  EXPECT_EQ(catalog_digest(
                ContentWorkloadGenerator(internet(), config).generate()),
            0xfbb125224c5497f1ULL);
  config.vantage_count = 6;
  EXPECT_EQ(catalog_digest(
                ContentWorkloadGenerator(internet(), config).generate()),
            0x04a775624ef6d8cbULL);
}

}  // namespace
}  // namespace lina::mobility
