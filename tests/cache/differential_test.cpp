// Randomized differential replay of MappingCache against O(n) reference
// policy models, plus the churn-coherence oracle the sim wiring relies
// on: an infinite-capacity cache that is invalidated (or refreshed) on
// every mapping update must answer exactly like direct resolution.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <limits>
#include <optional>
#include <unordered_map>
#include <vector>

#include "lina/cache/mapping_cache.hpp"
#include "lina/stats/rng.hpp"

namespace lina::cache {
namespace {

using Cache = MappingCache<std::uint64_t, std::uint32_t>;

CacheConfig config_for(Policy policy, std::size_t capacity, double ttl_ms,
                       ChurnAction churn = ChurnAction::kInvalidate) {
  CacheConfig config;
  config.policy = policy;
  config.capacity = capacity;
  config.ttl_ms = ttl_ms;
  config.churn = churn;
  return config;
}

constexpr Policy kPolicies[] = {Policy::kTtlLru, Policy::kLfu,
                               Policy::kTwoQ};

// ---------------------------------------------------------------------
// Coherence oracle: with capacity >= keyspace (no capacity pressure), an
// unbounded TTL and churn applied on every mapping update, a probe hit
// must always return what direct resolution would. 100k randomized ops.
// ---------------------------------------------------------------------

void run_coherence(Policy policy, ChurnAction churn) {
  constexpr std::size_t kKeys = 512;
  Cache cache(config_for(policy, kKeys,
                         std::numeric_limits<double>::infinity(), churn));
  std::unordered_map<std::uint64_t, std::uint32_t> authoritative;
  stats::Rng rng(2024, "cache-coherence");
  std::uint32_t next_value = 1;
  double now = 0.0;
  for (std::size_t op = 0; op < 100000; ++op) {
    now += 0.25;
    const std::uint64_t key = rng.index(kKeys);
    if (rng.index(4) == 0) {  // mapping churn: the endpoint moved
      authoritative[key] = next_value++;
      cache.churn(key, authoritative[key], now);
      continue;
    }
    // Demand lookup: probe, resolve on miss, install.
    const auto cached = cache.probe(key, now);
    const auto it = authoritative.find(key);
    const std::uint32_t truth =
        it != authoritative.end() ? it->second : (authoritative[key] =
                                                      next_value++);
    if (cached.has_value()) {
      ASSERT_EQ(*cached, truth) << "stale hit for key " << key;
    } else {
      const auto result = cache.insert(key, truth, now);
      ASSERT_FALSE(result.evicted.has_value())
          << "capacity eviction despite capacity == keyspace";
    }
  }
  EXPECT_EQ(cache.stats().evictions, 0u);
  EXPECT_EQ(cache.stats().ttl_expiries, 0u);
  EXPECT_GT(cache.stats().hits, 0u);
  EXPECT_GT(cache.stats().misses, 0u);
}

TEST(CacheCoherenceTest, InvalidatedCacheMatchesDirectResolution) {
  for (const Policy policy : kPolicies) {
    SCOPED_TRACE(policy_name(policy));
    run_coherence(policy, ChurnAction::kInvalidate);
  }
}

TEST(CacheCoherenceTest, RefreshedCacheMatchesDirectResolution) {
  for (const Policy policy : kPolicies) {
    SCOPED_TRACE(policy_name(policy));
    run_coherence(policy, ChurnAction::kRefresh);
  }
}

// ---------------------------------------------------------------------
// Reference model: an O(n) transliteration of the documented policy
// semantics (policy.hpp / mapping_cache.hpp) with none of the arena /
// intrusive-list / open-addressing machinery. Every probe outcome,
// insert outcome (including the evicted key), churn outcome and counter
// must match the production cache exactly.
// ---------------------------------------------------------------------

class ReferenceCache {
 public:
  explicit ReferenceCache(const CacheConfig& config) : config_(config) {
    if (config.policy == Policy::kTwoQ) {
      kin_ = std::max<std::size_t>(1, config.capacity / 4);
      ghost_capacity_ = std::max<std::size_t>(1, config.capacity / 2);
    }
  }

  std::optional<std::uint32_t> probe(std::uint64_t key, double now_ms) {
    const auto it = find(key);
    if (it == entries_.end()) return miss();
    if (it->expire_ms < now_ms) {
      entries_.erase(it);
      ++stats_.ttl_expiries;
      return miss();
    }
    it->expire_ms = now_ms + config_.ttl_ms;
    touch(*it);
    ++stats_.hits;
    return it->value;
  }

  Cache::InsertResult insert(std::uint64_t key, std::uint32_t value,
                             double now_ms) {
    Cache::InsertResult result;
    const auto existing = find(key);
    if (existing != entries_.end()) {
      existing->value = value;
      existing->expire_ms = now_ms + config_.ttl_ms;
      return result;
    }
    bool to_main = false;
    if (config_.policy == Policy::kTwoQ) {
      const auto ghost = std::find(ghosts_.begin(), ghosts_.end(), key);
      if (ghost != ghosts_.end()) {
        ghosts_.erase(ghost);
        to_main = true;
      }
    }
    if (entries_.size() == config_.capacity) {
      const auto victim = pick_victim();
      result.evicted = victim->key;
      if (config_.policy == Policy::kTwoQ && victim->probation)
        ghost_insert(victim->key);
      entries_.erase(victim);
      ++stats_.evictions;
    }
    Entry entry;
    entry.key = key;
    entry.value = value;
    entry.expire_ms = now_ms + config_.ttl_ms;
    entry.freq = 1;
    entry.stamp = ++clock_;
    entry.probation = config_.policy == Policy::kTwoQ && !to_main;
    entries_.push_back(entry);
    ++stats_.insertions;
    result.inserted = true;
    return result;
  }

  bool invalidate(std::uint64_t key) {
    const auto it = find(key);
    if (it == entries_.end()) return false;
    entries_.erase(it);
    ++stats_.invalidations;
    return true;
  }

  bool refresh(std::uint64_t key, std::uint32_t value, double now_ms) {
    const auto it = find(key);
    if (it == entries_.end()) return false;
    it->value = value;
    it->expire_ms = now_ms + config_.ttl_ms;
    ++stats_.refreshes;
    return true;
  }

  void invalidate_all() {
    stats_.invalidations += entries_.size();
    entries_.clear();  // the ghost queue survives (admission history)
  }

  [[nodiscard]] bool contains(std::uint64_t key) const {
    return std::any_of(entries_.begin(), entries_.end(),
                       [key](const Entry& e) { return e.key == key; });
  }

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] const CacheStats& stats() const { return stats_; }

 private:
  struct Entry {
    std::uint64_t key = 0;
    std::uint32_t value = 0;
    double expire_ms = 0.0;
    std::uint64_t freq = 0;   // LFU reference count
    std::uint64_t stamp = 0;  // recency / bucket-entry order
    bool probation = false;   // 2Q A1in membership
  };

  std::optional<std::uint32_t> miss() {
    ++stats_.misses;
    return std::nullopt;
  }

  std::vector<Entry>::iterator find(std::uint64_t key) {
    return std::find_if(entries_.begin(), entries_.end(),
                        [key](const Entry& e) { return e.key == key; });
  }

  void touch(Entry& entry) {
    switch (config_.policy) {
      case Policy::kTtlLru:
        entry.stamp = ++clock_;
        break;
      case Policy::kLfu:
        ++entry.freq;
        entry.stamp = ++clock_;  // entered the f+1 bucket now
        break;
      case Policy::kTwoQ:
        // Probation hits do not promote; protected hits refresh recency.
        if (!entry.probation) entry.stamp = ++clock_;
        break;
      case Policy::kOff:
        break;
    }
  }

  std::vector<Entry>::iterator pick_victim() {
    switch (config_.policy) {
      case Policy::kTtlLru:
        return min_stamp(entries_.begin(), entries_.end(),
                         [](const Entry&) { return true; });
      case Policy::kLfu: {
        std::uint64_t min_freq = std::numeric_limits<std::uint64_t>::max();
        for (const Entry& e : entries_) min_freq = std::min(min_freq, e.freq);
        return min_stamp(entries_.begin(), entries_.end(),
                         [min_freq](const Entry& e) {
                           return e.freq == min_freq;
                         });
      }
      case Policy::kTwoQ: {
        const std::size_t in_size = static_cast<std::size_t>(
            std::count_if(entries_.begin(), entries_.end(),
                          [](const Entry& e) { return e.probation; }));
        const bool main_empty = in_size == entries_.size();
        const bool from_probation = in_size > kin_ || main_empty;
        return min_stamp(entries_.begin(), entries_.end(),
                         [from_probation](const Entry& e) {
                           return e.probation == from_probation;
                         });
      }
      case Policy::kOff:
        break;
    }
    return entries_.end();
  }

  template <typename Pred>
  std::vector<Entry>::iterator min_stamp(std::vector<Entry>::iterator first,
                                         std::vector<Entry>::iterator last,
                                         Pred pred) {
    auto best = last;
    for (auto it = first; it != last; ++it) {
      if (!pred(*it)) continue;
      if (best == last || it->stamp < best->stamp) best = it;
    }
    return best;
  }

  void ghost_insert(std::uint64_t key) {
    if (ghosts_.size() == ghost_capacity_) ghosts_.pop_back();
    ghosts_.push_front(key);  // front = newest, back = oldest
  }

  CacheConfig config_;
  CacheStats stats_;
  std::vector<Entry> entries_;
  std::deque<std::uint64_t> ghosts_;
  std::size_t kin_ = 0;
  std::size_t ghost_capacity_ = 0;
  std::uint64_t clock_ = 0;
};

void run_differential(Policy policy, std::size_t capacity, double ttl_ms,
                      std::uint64_t seed) {
  constexpr std::size_t kKeys = 160;  // 5x capacity at the default 32
  Cache cache(config_for(policy, capacity, ttl_ms));
  ReferenceCache reference(config_for(policy, capacity, ttl_ms));
  stats::Rng rng(seed, "cache-differential");
  std::uint32_t next_value = 1;
  double now = 0.0;
  for (std::size_t op = 0; op < 20000; ++op) {
    now += static_cast<double>(rng.index(8));  // repeats + TTL pressure
    const std::uint64_t key = rng.index(kKeys);
    switch (rng.index(16)) {
      case 0: {  // churn invalidation
        ASSERT_EQ(cache.invalidate(key), reference.invalidate(key));
        break;
      }
      case 1: {  // churn refresh
        const std::uint32_t value = next_value++;
        ASSERT_EQ(cache.refresh(key, value, now),
                  reference.refresh(key, value, now));
        break;
      }
      case 2: {  // blind insert (exercises the update-in-place path)
        const std::uint32_t value = next_value++;
        const auto a = cache.insert(key, value, now);
        const auto b = reference.insert(key, value, now);
        ASSERT_EQ(a.inserted, b.inserted);
        ASSERT_EQ(a.evicted, b.evicted);
        break;
      }
      case 3: {  // shared-origin wipe, rarely
        if (rng.index(50) == 0) {
          cache.invalidate_all();
          reference.invalidate_all();
        } else {
          ASSERT_EQ(cache.contains(key), reference.contains(key));
        }
        break;
      }
      default: {  // demand lookup: probe, install on miss
        const auto a = cache.probe(key, now);
        const auto b = reference.probe(key, now);
        ASSERT_EQ(a, b) << "probe divergence at op " << op;
        if (!a.has_value()) {
          const std::uint32_t value = next_value++;
          const auto ra = cache.insert(key, value, now);
          const auto rb = reference.insert(key, value, now);
          ASSERT_EQ(ra.inserted, rb.inserted);
          ASSERT_EQ(ra.evicted, rb.evicted)
              << "eviction-order divergence at op " << op;
        }
        break;
      }
    }
    ASSERT_EQ(cache.size(), reference.size());
  }
  // The whole operation history agreed; the counters must too.
  EXPECT_EQ(cache.stats(), reference.stats());
  EXPECT_GT(cache.stats().evictions, 0u);
  // Tiny arenas evict entries long before they can idle out, so only the
  // full-size runs are required to have exercised the expiry path.
  if (capacity >= 16) {
    EXPECT_GT(cache.stats().ttl_expiries, 0u);
  }
  for (std::uint64_t key = 0; key < kKeys; ++key)
    ASSERT_EQ(cache.contains(key), reference.contains(key));
}

TEST(CacheDifferentialTest, LruMatchesReferenceModel) {
  run_differential(Policy::kTtlLru, 32, 40.0, 11);
}

TEST(CacheDifferentialTest, LfuMatchesReferenceModel) {
  run_differential(Policy::kLfu, 32, 40.0, 12);
}

TEST(CacheDifferentialTest, TwoQMatchesReferenceModel) {
  run_differential(Policy::kTwoQ, 32, 40.0, 13);
}

TEST(CacheDifferentialTest, TinyCapacitiesMatchReferenceModel) {
  // Degenerate arenas (capacity 1..4) stress victim selection, the 2Q
  // kin/ghost floors and the backward-shift index deletes.
  for (const Policy policy : kPolicies) {
    for (const std::size_t capacity : {1u, 2u, 3u, 4u}) {
      SCOPED_TRACE(::testing::Message() << policy_name(policy) << " c"
                                        << capacity);
      run_differential(policy, capacity, 25.0, 900 + capacity);
    }
  }
}

}  // namespace
}  // namespace lina::cache
