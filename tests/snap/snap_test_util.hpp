#pragma once

// Shared helpers for the lina::snap suite: unique scratch directories,
// byte-level file surgery, deterministic fixture tables, and the
// bit-identity assertions the roundtrip/fault-matrix tests are built on.

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <random>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "lina/names/content_name.hpp"
#include "lina/net/ipv4.hpp"
#include "lina/routing/fib.hpp"
#include "lina/routing/name_fib.hpp"

namespace lina::testing {

class TempSnapDir {
 public:
  explicit TempSnapDir(const std::string& tag) {
    path_ = std::filesystem::temp_directory_path() /
            ("lina-snap-test-" + tag + "-" + std::to_string(::getpid()));
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~TempSnapDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  TempSnapDir(const TempSnapDir&) = delete;
  TempSnapDir& operator=(const TempSnapDir&) = delete;

  [[nodiscard]] const std::filesystem::path& path() const { return path_; }

 private:
  std::filesystem::path path_;
};

inline std::vector<char> read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

inline void write_file(const std::filesystem::path& path,
                       const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// A deterministic pseudo-random IP FIB: `entries` prefixes of mixed
/// length with varied entry attributes (all three route classes, nonzero
/// path lengths and MEDs) so every value field takes the serializer's
/// non-trivial paths.
inline routing::Fib make_ip_fib(std::uint64_t seed, std::size_t entries) {
  std::mt19937_64 rng(seed);
  routing::Fib fib;
  while (fib.size() < entries) {
    const auto len = static_cast<std::uint8_t>(8 + rng() % 17);  // /8../24
    const net::Prefix prefix(
        net::Ipv4Address(static_cast<std::uint32_t>(rng())), len);
    routing::FibEntry entry;
    entry.port = static_cast<routing::Port>(rng() % 4096);
    entry.route_class = static_cast<routing::RouteClass>(rng() % 3);
    entry.path_length = static_cast<std::uint32_t>(1 + rng() % 9);
    entry.med = static_cast<std::uint32_t>(rng() % 1000);
    fib.insert(prefix, entry);
  }
  return fib;
}

/// Deterministic probe addresses: half uniform (mostly uncovered), half
/// biased into the low /8s where make_ip_fib's short prefixes cluster.
inline std::vector<net::Ipv4Address> probe_addresses(std::uint64_t seed,
                                                     std::size_t count) {
  std::mt19937_64 rng(seed);
  std::vector<net::Ipv4Address> addrs;
  addrs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    std::uint32_t bits = static_cast<std::uint32_t>(rng());
    if (i % 2 == 0) bits &= 0x3fffffffu;
    addrs.emplace_back(bits);
  }
  return addrs;
}

/// A deterministic hierarchical name FIB over a small vocabulary, with
/// names of depth 1..4 so the edge table has real shared-prefix structure.
inline routing::NameFib make_name_fib(std::uint64_t seed,
                                      std::size_t entries) {
  static const std::vector<std::string> kTlds = {"com", "net", "org", "edu"};
  static const std::vector<std::string> kBrands = {
      "alpha", "bravo", "chi", "delta", "echo", "foxtrot", "golf", "hotel"};
  static const std::vector<std::string> kSubs = {"video", "img",  "static",
                                                 "cdn",   "live", "beta"};
  std::mt19937_64 rng(seed);
  routing::NameFib fib;
  while (fib.size() < entries) {
    std::vector<std::string> parts = {kTlds[rng() % kTlds.size()],
                                      kBrands[rng() % kBrands.size()]};
    const std::size_t depth = 1 + rng() % 4;
    while (parts.size() < depth) parts.push_back(kSubs[rng() % kSubs.size()]);
    fib.announce(names::ContentName(std::move(parts)),
                 static_cast<routing::Port>(rng() % 512));
  }
  return fib;
}

/// Probe names drawn from the same vocabulary (likely hits at every
/// depth) plus extensions below announced leaves and sure misses.
inline std::vector<names::ContentName> probe_names(std::uint64_t seed,
                                                   std::size_t count) {
  std::mt19937_64 rng(seed);
  std::vector<names::ContentName> names;
  names.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    static const std::vector<std::string> kTlds = {"com", "net", "org",
                                                   "edu", "gov"};
    static const std::vector<std::string> kBrands = {
        "alpha", "bravo", "chi",  "delta", "echo",
        "foxtrot", "golf", "hotel", "india"};
    static const std::vector<std::string> kSubs = {
        "video", "img", "static", "cdn", "live", "beta", "deep", "x"};
    std::vector<std::string> parts = {kTlds[rng() % kTlds.size()],
                                      kBrands[rng() % kBrands.size()]};
    const std::size_t depth = 1 + rng() % 6;
    while (parts.size() < depth) parts.push_back(kSubs[rng() % kSubs.size()]);
    names.emplace_back(std::move(parts));
  }
  return names;
}

/// Asserts `got` answers every probe bit-identically to `expect`.
inline void expect_ip_identical(const routing::FrozenFib& expect,
                                const routing::FrozenFib& got,
                                std::span<const net::Ipv4Address> probes) {
  ASSERT_EQ(expect.size(), got.size());
  std::vector<const routing::FibEntry*> want(probes.size());
  std::vector<const routing::FibEntry*> have(probes.size());
  expect.entries_for_many(probes, want);
  got.entries_for_many(probes, have);
  for (std::size_t i = 0; i < probes.size(); ++i) {
    ASSERT_EQ(want[i] == nullptr, have[i] == nullptr)
        << "coverage diverged at probe " << i;
    if (want[i] != nullptr) {
      ASSERT_EQ(*want[i], *have[i]) << "entry diverged at probe " << i;
    }
    // The full lookup must agree on the matched prefix too.
    const auto a = expect.trie().lookup(probes[i]);
    const auto b = got.trie().lookup(probes[i]);
    ASSERT_EQ(a.has_value(), b.has_value());
    if (a.has_value()) {
      ASSERT_EQ(a->first.to_string(), b->first.to_string());
      ASSERT_EQ(a->second, b->second);
    }
  }
}

/// Asserts `got` equals `expect` on size(), lpm_compressed_size(),
/// table_bytes() and every probe name's port.
inline void expect_name_identical(const routing::NameFib& expect,
                                  const routing::NameFib& got,
                                  std::span<const names::ContentName> probes) {
  ASSERT_EQ(expect.size(), got.size());
  ASSERT_EQ(expect.lpm_compressed_size(), got.lpm_compressed_size());
  ASSERT_EQ(expect.table_bytes(), got.table_bytes());
  for (std::size_t i = 0; i < probes.size(); ++i) {
    ASSERT_EQ(expect.port_for(probes[i]), got.port_for(probes[i]))
        << "port diverged at probe " << i;
  }
}

}  // namespace lina::testing
