// Thread-safety of the snapshot read path: many threads load the same
// committed tables (separate SnapshotStore handles, shared directory) and
// run batched lookups concurrently. Run under the tsan preset, this pins
// the load path — mmap, validation, decode, interner re-interning — as
// data-race free.

#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "lina/snap/store.hpp"
#include "snap_test_util.hpp"

namespace lina::snap {
namespace {

using lina::testing::expect_ip_identical;
using lina::testing::expect_name_identical;
using lina::testing::make_ip_fib;
using lina::testing::make_name_fib;
using lina::testing::probe_addresses;
using lina::testing::probe_names;
using lina::testing::TempSnapDir;

TEST(SnapConcurrency, ParallelLoadsAgreeWithTheLiveTables) {
  TempSnapDir dir("concurrent");
  const routing::Fib ip_live = make_ip_fib(51, 400);
  const routing::NameFib name_live = make_name_fib(52, 200);
  {
    SnapshotStore store(dir.path());
    store.save_ip_fib("device", ip_live.freeze());
    store.save_name_fib("names", name_live);
  }

  const routing::FrozenFib ip_expect = ip_live.freeze();
  const std::vector<net::Ipv4Address> addr_probes = probe_addresses(53, 1024);
  const std::vector<names::ContentName> name_probes = probe_names(54, 512);

  constexpr int kThreads = 8;
  constexpr int kRounds = 4;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int round = 0; round < kRounds; ++round) {
        SnapshotStore store(dir.path());
        const routing::FrozenFib ip = store.load_ip_fib("device");
        expect_ip_identical(ip_expect, ip, addr_probes);
        const routing::NameFib names = store.load_name_fib("names");
        expect_name_identical(name_live, names, name_probes);
      }
    });
  }
  for (std::thread& t : threads) t.join();
}

TEST(SnapConcurrency, SharedFrozenTablesServeParallelReaders) {
  TempSnapDir dir("shared-readers");
  const routing::Fib ip_live = make_ip_fib(55, 300);
  SnapshotStore store(dir.path());
  store.save_ip_fib("device", ip_live.freeze());

  // One load, many readers — the post-decode FrozenFib must be freely
  // shareable, exactly like a freshly frozen table.
  const routing::FrozenFib shared = store.load_ip_fib("device");
  const routing::FrozenFib expect = ip_live.freeze();
  const std::vector<net::Ipv4Address> probes = probe_addresses(56, 2048);

  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back(
        [&] { expect_ip_identical(expect, shared, probes); });
  }
  for (std::thread& t : threads) t.join();
}

}  // namespace
}  // namespace lina::snap
