#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "lina/net/ipv4.hpp"
#include "lina/obs/metrics.hpp"
#include "lina/prof/prof.hpp"

namespace lina::net {

/// An immutable longest-prefix-match snapshot of an IpTrie — the one
/// reader of every IP table — laid out for the read-mostly evaluation
/// phases (stretch, displaced-entry scans, aggregateability, streamed
/// replay).
///
/// Nodes are a contiguous preorder array of 16-byte records (child0 is
/// always the next record, so half of all descents are a sequential read);
/// payloads live in a separate dense array indexed by a 32-bit slot. A
/// root stride table sized to the entry count (up to 2^16 slots) resolves
/// the top levels of every descent with one probe, so large-table lookups
/// touch only the slot-variant tail of the walk. `lookup_many` drives
/// several descents in lockstep with software prefetch so independent
/// queries overlap their cache misses — the batch form the evaluators and
/// `scale_million_users` replay use.
///
/// Built exclusively by `IpTrie<T>::freeze()`; never mutated afterwards.
template <typename T>
class FrozenIpTrie {
 public:
  static constexpr std::uint32_t kNil = 0xffffffffu;

  /// One path-compressed branch node. `key`/`len` are the node's full
  /// prefix (skipped bits included); `child1` is an arena index (child0 is
  /// implicitly `self + subtree` — see `child0` below); `value_slot`
  /// indexes `values_` or kNil.
  struct Node {
    std::uint32_t key = 0;
    std::uint32_t child0 = kNil;
    std::uint32_t child1 = kNil;
    std::uint32_t value_slot = kNil;
    std::uint8_t len = 0;
  };

  /// One slot of the root stride table: the walk state shared by every
  /// address whose top `stride_bits_` bits select this slot — the deepest
  /// reachable node still to be examined (kNil if the walk already ended)
  /// plus the best value slot accumulated above it.
  struct RootEntry {
    std::uint32_t node = kNil;
    std::uint32_t best = kNil;
  };

  FrozenIpTrie() = default;

  /// Assembled by IpTrie::freeze(): preorder node array plus dense values.
  FrozenIpTrie(std::vector<Node> nodes, std::vector<T> values,
               std::vector<Prefix> prefixes)
      : nodes_(std::move(nodes)),
        values_(std::move(values)),
        prefixes_(std::move(prefixes)) {
    build_root_table();
  }

  [[nodiscard]] std::size_t size() const { return values_.size(); }
  [[nodiscard]] bool empty() const { return values_.empty(); }
  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }

  // Raw arena views for serialization (lina::snap). The spans alias the
  // trie's storage and follow its lifetime.
  [[nodiscard]] std::span<const Node> nodes() const { return nodes_; }
  [[nodiscard]] std::span<const T> values() const { return values_; }
  [[nodiscard]] std::span<const Prefix> prefixes() const { return prefixes_; }

  /// Bytes retained by the snapshot (nodes + payloads + prefix table).
  [[nodiscard]] std::size_t arena_bytes() const {
    return nodes_.capacity() * sizeof(Node) +
           values_.capacity() * sizeof(T) +
           prefixes_.capacity() * sizeof(Prefix) +
           root_.capacity() * sizeof(RootEntry);
  }

  /// Longest-prefix match: the most specific stored entry containing
  /// `addr`, or nullopt.
  [[nodiscard]] std::optional<std::pair<Prefix, T>> lookup(
      Ipv4Address addr) const {
    std::uint64_t visited = 0;
    const std::uint32_t slot = match_slot(addr.value(), visited);
    obs::metric::ip_trie_lpm_lookups().add();
    obs::metric::ip_trie_lpm_node_visits().add(visited);
    if (slot == kNil) return std::nullopt;
    return std::make_pair(prefixes_[slot], values_[slot]);
  }

  /// The matched payload only (no Prefix materialisation); nullptr on miss.
  [[nodiscard]] const T* lookup_value(Ipv4Address addr) const {
    std::uint64_t visited = 0;
    const std::uint32_t slot = match_slot(addr.value(), visited);
    obs::metric::ip_trie_lpm_lookups().add();
    obs::metric::ip_trie_lpm_node_visits().add(visited);
    return slot == kNil ? nullptr : &values_[slot];
  }

  /// Batch LPM: `out[i]` receives the payload for `addrs[i]` (nullptr when
  /// uncovered). Runs up to kLanes descents in lockstep, prefetching each
  /// lane's next node while the other lanes execute, so independent
  /// queries overlap their memory latency. Results are exactly
  /// per-query `lookup_value` in order; out.size() must equal addrs.size().
  void lookup_many(std::span<const Ipv4Address> addrs,
                   std::span<const T*> out) const {
    PROF_SPAN("lina.trie.ip_lookup_many");
    constexpr std::size_t kLanes = 8;
    std::uint64_t visited = 0;
    if (nodes_.empty()) {
      for (std::size_t i = 0; i < addrs.size(); ++i) out[i] = nullptr;
    } else {
      std::array<std::uint32_t, kLanes> node{};
      std::array<std::uint32_t, kLanes> best{};
      std::array<std::size_t, kLanes> query{};
      std::size_t next = 0;
      std::size_t active = 0;
      const auto root_slot = [&](std::size_t q) {
        return addrs[q].value() >> (32u - stride_bits_);
      };
      const auto start_lane = [&](std::size_t lane) {
        if (root_.empty()) {
          node[lane] = 0;
          best[lane] = kNil;
        } else {
          const RootEntry& e = root_[root_slot(next)];
          node[lane] = e.node;
          best[lane] = e.best;
          // Hide the next refill's root-table miss behind this lane's walk.
          if (next + 1 < addrs.size())
            __builtin_prefetch(&root_[root_slot(next + 1)]);
        }
        query[lane] = next++;
        if (node[lane] != kNil) __builtin_prefetch(&nodes_[node[lane]]);
      };
      while (next < addrs.size() && active < kLanes) start_lane(active++);
      while (active > 0) {
        for (std::size_t lane = 0; lane < active;) {
          const std::uint32_t idx = node[lane];
          std::uint32_t step = kNil;
          if (idx != kNil) {
            const Node& n = nodes_[idx];
            const std::uint32_t a = addrs[query[lane]].value();
            if (((a ^ n.key) & prefix_mask(n.len)) == 0) {
              ++visited;
              if (n.value_slot != kNil) best[lane] = n.value_slot;
              if (n.len < 32)
                step = ((a >> (31u - n.len)) & 1u) != 0 ? n.child1 : n.child0;
            }
          }
          if (step != kNil) {
            node[lane] = step;
            __builtin_prefetch(&nodes_[step]);
            ++lane;
            continue;
          }
          // Lane finished: emit, then refill or retire it.
          out[query[lane]] =
              best[lane] == kNil ? nullptr : &values_[best[lane]];
          if (next < addrs.size()) {
            start_lane(lane);
            ++lane;
          } else {
            --active;
            node[lane] = node[active];
            best[lane] = best[active];
            query[lane] = query[active];
          }
        }
      }
    }
    obs::metric::ip_trie_lpm_lookups().add(addrs.size());
    obs::metric::ip_trie_lpm_node_visits().add(visited);
  }

 private:
  /// Walks the preorder arena; returns the best value slot (kNil on miss).
  /// The root stride table resolves every node shallower than
  /// `stride_bits_` with a single probe, so the walk starts at the first
  /// slot-variant node.
  [[nodiscard]] std::uint32_t match_slot(std::uint32_t a,
                                         std::uint64_t& visited) const {
    std::uint32_t best = kNil;
    std::uint32_t idx;
    if (!root_.empty()) {
      const RootEntry& e = root_[a >> (32u - stride_bits_)];
      best = e.best;
      idx = e.node;
    } else {
      idx = nodes_.empty() ? kNil : 0;
    }
    while (idx != kNil) {
      const Node& n = nodes_[idx];
      if (((a ^ n.key) & prefix_mask(n.len)) != 0) break;
      ++visited;
      if (n.value_slot != kNil) best = n.value_slot;
      if (n.len == 32) break;
      idx = ((a >> (31u - n.len)) & 1u) != 0 ? n.child1 : n.child0;
    }
    return best;
  }

  /// Precomputes, per `stride_bits_`-bit address prefix, the walk state
  /// after consuming every node shallower than the stride: those nodes'
  /// match checks and child choices only read the top `stride_bits_` bits,
  /// so they are identical for all addresses in the slot. Nodes at or
  /// below the stride depth depend on deeper bits and are left for the
  /// per-query walk (which re-checks the continuation node's full mask).
  void build_root_table() {
    stride_bits_ = 0;
    while (stride_bits_ < 16 &&
           (std::size_t{1} << stride_bits_) < values_.size()) {
      ++stride_bits_;
    }
    root_.clear();
    if (nodes_.empty() || stride_bits_ == 0) return;
    root_.resize(std::size_t{1} << stride_bits_);
    for (std::uint32_t s = 0; s < root_.size(); ++s) {
      const std::uint32_t a = s << (32u - stride_bits_);
      RootEntry e;
      std::uint32_t idx = 0;
      while (idx != kNil) {
        const Node& n = nodes_[idx];
        if (n.len >= stride_bits_) break;  // depends on bits past the stride
        if (((a ^ n.key) & prefix_mask(n.len)) != 0) {
          idx = kNil;
          break;
        }
        if (n.value_slot != kNil) e.best = n.value_slot;
        idx = ((a >> (31u - n.len)) & 1u) != 0 ? n.child1 : n.child0;
      }
      e.node = idx;
      root_[s] = e;
    }
  }

  std::vector<Node> nodes_;     // preorder: node, subtree0, subtree1
  std::vector<T> values_;       // dense payloads, preorder discovery order
  std::vector<Prefix> prefixes_;  // prefix per value slot
  std::vector<RootEntry> root_;   // indexed by the address's top stride bits
  std::uint32_t stride_bits_ = 0;
};

}  // namespace lina::net
