// EventBundle / BundleChain: layout guarantees, append/drain order,
// and the arena-recycling contract (steady state allocates nothing once
// a chain has seen its peak window).

#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "lina/des/bundle.hpp"

namespace lina::des {
namespace {

EventRecord record_at(std::uint32_t i) {
  EventRecord r;
  r.time_ms = static_cast<double>(i);
  r.session = i;
  r.packet = i * 7;
  r.at = i % 97;
  r.dest = (i * 3) % 97;
  r.hops = static_cast<std::uint16_t>(i % 11);
  r.type = (i % 2) == 0 ? EventType::kEmit : EventType::kHop;
  return r;
}

TEST(EventBundleTest, TilesWholeCacheLines) {
  // 21 × 48 B records + the count word pad to exactly 1 KiB under the
  // cache-line alignment — the layout DESIGN.md §4j commits to.
  EXPECT_EQ(sizeof(EventBundle), 1024u);
  EXPECT_EQ(alignof(EventBundle), 64u);
  EXPECT_EQ(EventBundle::kRecords, 21u);
}

TEST(BundleChainTest, DrainsInAppendOrder) {
  BundleChain chain;
  EXPECT_TRUE(chain.empty());
  // Enough records to span several bundles, including one partial tail.
  const std::size_t n = EventBundle::kRecords * 3 + 5;
  for (std::uint32_t i = 0; i < n; ++i) chain.append(record_at(i));
  EXPECT_FALSE(chain.empty());
  EXPECT_EQ(chain.pending_records(), n);
  EXPECT_EQ(chain.pending_bundles(), 4u);

  std::vector<EventRecord> seen;
  const std::size_t drained =
      chain.drain([&](const EventRecord& r) { seen.push_back(r); });
  EXPECT_EQ(drained, n);
  ASSERT_EQ(seen.size(), n);
  for (std::uint32_t i = 0; i < n; ++i) {
    const EventRecord want = record_at(i);
    EXPECT_EQ(seen[i].time_ms, want.time_ms) << "i=" << i;
    EXPECT_EQ(seen[i].sent_ms, want.sent_ms) << "i=" << i;
    EXPECT_EQ(seen[i].session, want.session) << "i=" << i;
    EXPECT_EQ(seen[i].packet, want.packet) << "i=" << i;
    EXPECT_EQ(seen[i].at, want.at) << "i=" << i;
    EXPECT_EQ(seen[i].dest, want.dest) << "i=" << i;
    EXPECT_EQ(seen[i].hops, want.hops) << "i=" << i;
    EXPECT_EQ(seen[i].type, want.type) << "i=" << i;
    EXPECT_EQ(seen[i].stage, want.stage) << "i=" << i;
  }
  EXPECT_TRUE(chain.empty());
  EXPECT_EQ(chain.pending_records(), 0u);
  EXPECT_EQ(chain.pending_bundles(), 0u);
}

TEST(BundleChainTest, EmptyDrainIsANoOp) {
  BundleChain chain;
  std::size_t calls = 0;
  EXPECT_EQ(chain.drain([&](const EventRecord&) { ++calls; }), 0u);
  EXPECT_EQ(calls, 0u);
}

TEST(BundleChainTest, RecyclesArenaAcrossWindows) {
  BundleChain chain;
  const std::size_t peak = EventBundle::kRecords * 5;
  for (std::uint32_t i = 0; i < peak; ++i) chain.append(record_at(i));
  chain.drain([](const EventRecord&) {});
  const std::size_t arena = chain.capacity_bundles();
  EXPECT_EQ(arena, 5u);

  // Windows at or below the high-water mark must reuse the arena: the
  // bundle count never grows again.
  for (int window = 0; window < 8; ++window) {
    for (std::uint32_t i = 0; i < peak; ++i) chain.append(record_at(i));
    EXPECT_EQ(chain.capacity_bundles(), arena) << "window=" << window;
    std::size_t drained = 0;
    chain.drain([&](const EventRecord&) { ++drained; });
    EXPECT_EQ(drained, peak);
  }

  // A partial window reuses the first bundle only.
  chain.append(record_at(1));
  EXPECT_EQ(chain.pending_bundles(), 1u);
  EXPECT_EQ(chain.capacity_bundles(), arena);
}

}  // namespace
}  // namespace lina::des
