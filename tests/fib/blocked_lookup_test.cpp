// FrozenFib::entries_for_many splits long inputs into fixed blocks that
// run in parallel. Whatever the length, thread count or calling context,
// every slot must hold exactly the per-address entry_for answer, and the
// LPM work counters must not depend on the thread count.

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <span>
#include <vector>

#include "../support/fixtures.hpp"
#include "lina/exec/parallel.hpp"
#include "lina/obs/metrics.hpp"
#include "lina/routing/fib.hpp"

namespace lina::routing {
namespace {

using lina::testing::ThreadCountGuard;

/// A few thousand nested prefixes with distinct ports.
const FrozenFib& sample_fib() {
  static const FrozenFib frozen = [] {
    std::mt19937_64 rng(0xf1b5eedULL);
    Fib fib;
    for (std::uint32_t i = 0; i < 4000; ++i) {
      const unsigned length = 8 + static_cast<unsigned>(rng() % 17);
      const auto addr = static_cast<std::uint32_t>(rng() % (1u << 20)) << 12;
      fib.insert(net::Prefix(net::Ipv4Address(addr), length),
                 FibEntry{.port = i, .path_length = i % 5});
    }
    return fib.freeze();
  }();
  return frozen;
}

/// 100k probe addresses: half inside the prefixes' address pool, half
/// anywhere (mostly misses).
const std::vector<net::Ipv4Address>& probes() {
  static const std::vector<net::Ipv4Address> addrs = [] {
    std::mt19937_64 rng(0xadd5ULL);
    std::vector<net::Ipv4Address> out;
    for (std::size_t i = 0; i < 100000; ++i) {
      const auto bits = static_cast<std::uint32_t>(rng());
      out.emplace_back(i % 2 == 0 ? (bits % (1u << 20)) << 12 : bits);
    }
    return out;
  }();
  return addrs;
}

constexpr std::size_t kSizes[] = {0,     1,     16383, 16384,
                                  16385, 100000};

/// entries_for_many over the first n probes, checked slot by slot against
/// entry_for; returns the LPM node visits the batch counted.
std::uint64_t check_prefix(std::size_t n) {
  const FrozenFib& fib = sample_fib();
  const std::span<const net::Ipv4Address> addrs(probes().data(), n);
  const FibEntry unset{};
  std::vector<const FibEntry*> out(n, &unset);
  const std::uint64_t before = obs::metric::ip_trie_lpm_node_visits().value();
  fib.entries_for_many(addrs, out);
  const std::uint64_t visits =
      obs::metric::ip_trie_lpm_node_visits().value() - before;
  for (std::size_t i = 0; i < n; ++i) {
    if (out[i] != fib.entry_for(addrs[i])) {
      ADD_FAILURE() << "slot " << i << " of " << n;
      break;
    }
  }
  return visits;
}

TEST(FibBlockedLookupTest, MatchesEntryForAtEverySizeAndThreadCount) {
  const ThreadCountGuard guard;
  const obs::EnabledScope recording(true);
  for (const std::size_t n : kSizes) {
    // The per-address walk counts the same nodes as the batched one.
    std::uint64_t want = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t before =
          obs::metric::ip_trie_lpm_node_visits().value();
      (void)sample_fib().entry_for(probes()[i]);
      want += obs::metric::ip_trie_lpm_node_visits().value() - before;
    }
    for (const std::size_t threads : {1u, 4u}) {
      exec::set_default_threads(threads);
      EXPECT_EQ(check_prefix(n), want) << n << " addresses, " << threads
                                       << " threads";
    }
  }
}

TEST(FibBlockedLookupTest, RunsInlineInsideAParallelRegion) {
  const ThreadCountGuard guard;
  exec::set_default_threads(4);
  // Each item issues a full multi-block batch from inside the pool.
  exec::parallel_for(std::size(kSizes), [](std::size_t i) {
    EXPECT_TRUE(exec::in_parallel_region());
    (void)check_prefix(kSizes[i]);
  });
}

}  // namespace
}  // namespace lina::routing
