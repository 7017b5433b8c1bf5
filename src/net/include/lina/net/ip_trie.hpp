#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "lina/net/frozen_ip_trie.hpp"
#include "lina/net/ipv4.hpp"
#include "lina/obs/metrics.hpp"

namespace lina::net {

/// A path-compressed (Patricia-style) binary trie keyed by IP prefixes —
/// the builder behind every IP table in the library. It only builds:
/// every longest-prefix match is answered by the immutable
/// `FrozenIpTrie` that `freeze()` emits.
///
/// Nodes live in a contiguous `std::vector` arena addressed by 32-bit
/// indices: no per-node heap allocation, no pointer chasing through
/// malloc-scattered memory. Each node stores its full prefix (`key`/`len`),
/// so chains of single-child bit nodes never exist.
///
/// The trie is build-once: entries are inserted or overwritten, never
/// erased, so the arena only grows and every slot is live. Every non-root
/// node either holds a value or has exactly two children (inserts create
/// value-less nodes only as split points), which bounds the arena by
/// 2·size() + 1.
///
/// T is the payload stored per prefix (an output port, a next hop, ...).
/// Operations:
///  - insert / assign a value for an exact prefix,
///  - in-order visitation of all stored entries,
///  - `freeze()`: the immutable FrozenIpTrie that answers lookups, with
///    batched prefetched lookups for the read-mostly evaluation phases.
template <typename T>
class IpTrie {
 public:
  IpTrie() { arena_.emplace_back(); }

  IpTrie(const IpTrie&) = delete;
  IpTrie& operator=(const IpTrie&) = delete;
  IpTrie(IpTrie&&) noexcept = default;
  IpTrie& operator=(IpTrie&&) noexcept = default;

  /// Inserts or overwrites the value at `prefix`. Returns true if a new
  /// entry was created, false if an existing entry was overwritten.
  bool insert(const Prefix& prefix, T value) {
    const std::uint32_t idx = find_or_create(prefix);
    const bool created = !arena_[idx].value.has_value();
    arena_[idx].value = std::move(value);
    if (created) ++size_;
    obs::metric::ip_trie_inserts().add();
    if (!created) obs::metric::ip_trie_displacements().add();
    return created;
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  /// Visits every stored (prefix, value) pair in trie order (shorter
  /// prefixes before their descendants, zero branch before one branch).
  void visit(const std::function<void(const Prefix&, const T&)>& fn) const {
    visit_node(0, fn);
  }

  /// Arena occupancy: every slot is a live node. At most 2·size() + 1 by
  /// the structural invariant.
  [[nodiscard]] std::size_t live_nodes() const { return arena_.size(); }

  /// Bytes the arena retains from the allocator (capacity, not just live
  /// nodes) — the `lina.fib.arena_bytes` telemetry source.
  [[nodiscard]] std::size_t arena_bytes() const {
    return arena_.capacity() * sizeof(Node);
  }

  /// Bytes needed for the live table alone (live nodes × node size) — the
  /// deterministic "real memory per table" figure the table-size benches
  /// report (independent of allocator growth policy).
  [[nodiscard]] std::size_t table_bytes() const {
    return live_nodes() * sizeof(Node);
  }

  /// Emits the immutable lookup table: preorder layout with batch
  /// lookups, holding exactly the entries inserted so far.
  [[nodiscard]] FrozenIpTrie<T> freeze() const {
    PROF_SPAN("lina.trie.ip_freeze");
    using FNode = typename FrozenIpTrie<T>::Node;
    std::vector<FNode> nodes;
    std::vector<T> values;
    std::vector<Prefix> prefixes;
    nodes.reserve(live_nodes());
    values.reserve(size_);
    prefixes.reserve(size_);
    freeze_node(0, nodes, values, prefixes);
    return FrozenIpTrie<T>(std::move(nodes), std::move(values),
                           std::move(prefixes));
  }

 private:
  static constexpr std::uint32_t kNil = 0xffffffffu;

  struct Node {
    std::uint32_t key = 0;                  // full prefix bits, host bits 0
    std::uint32_t child[2] = {kNil, kNil};  // arena indices
    std::uint8_t len = 0;                   // prefix length 0..32
    std::optional<T> value;
  };
  // table_bytes() counts nodes of exactly this layout, and the table-size
  // benches gate on it.
  static_assert(sizeof(Node) == 16 + sizeof(std::optional<T>));

  /// Bit `i` (0 = most significant) of `key`; requires i < 32.
  [[nodiscard]] static unsigned bit_at(std::uint32_t key, unsigned i) {
    return (key >> (31u - i)) & 1u;
  }

  /// Length of the common prefix of two keys (32 when equal).
  [[nodiscard]] static unsigned common_len(std::uint32_t a, std::uint32_t b) {
    return static_cast<unsigned>(std::countl_zero(a ^ b));
  }

  std::uint32_t allocate(std::uint32_t key, std::uint8_t len) {
    const auto idx = static_cast<std::uint32_t>(arena_.size());
    arena_.emplace_back();
    arena_[idx].key = key;
    arena_[idx].len = len;
    return idx;
  }

  /// Finds the node for `prefix`, creating (leaf / proper-prefix parent /
  /// split) nodes as needed. Returns its index; never touches values.
  std::uint32_t find_or_create(const Prefix& prefix) {
    const std::uint32_t key = prefix.network().value();
    const unsigned len = prefix.length();
    std::uint32_t idx = 0;
    while (true) {
      // Invariant: arena_[idx] is a (non-strict) prefix of (key, len).
      if (arena_[idx].len == len) return idx;
      const unsigned branch = bit_at(key, arena_[idx].len);
      const std::uint32_t c = arena_[idx].child[branch];
      if (c == kNil) {
        const std::uint32_t leaf = allocate(key, static_cast<std::uint8_t>(len));
        arena_[idx].child[branch] = leaf;  // allocate() may move the arena
        return leaf;
      }
      const std::uint32_t child_key = arena_[c].key;
      const unsigned child_len = arena_[c].len;
      const unsigned cpl =
          std::min({child_len, len, common_len(child_key, key)});
      if (cpl == child_len) {  // child is a prefix of the target: descend
        idx = c;
        continue;
      }
      if (cpl == len) {
        // Target is a proper prefix of the child: interpose the target.
        const std::uint32_t mid = allocate(key, static_cast<std::uint8_t>(len));
        arena_[mid].child[bit_at(child_key, len)] = c;
        arena_[idx].child[branch] = mid;
        return mid;
      }
      // Keys diverge below both: split with a value-less branch node.
      const std::uint32_t mid =
          allocate(key & prefix_mask(cpl), static_cast<std::uint8_t>(cpl));
      const std::uint32_t leaf = allocate(key, static_cast<std::uint8_t>(len));
      arena_[mid].child[bit_at(child_key, cpl)] = c;
      arena_[mid].child[bit_at(key, cpl)] = leaf;
      arena_[idx].child[branch] = mid;
      return leaf;
    }
  }

  // --- traversal ---------------------------------------------------------

  void visit_node(std::uint32_t idx,
                  const std::function<void(const Prefix&, const T&)>& fn)
      const {
    if (idx == kNil) return;
    const Node& n = arena_[idx];
    if (n.value.has_value()) fn(Prefix(Ipv4Address(n.key), n.len), *n.value);
    visit_node(n.child[0], fn);
    visit_node(n.child[1], fn);
  }

  /// Preorder copy into the frozen layout. Returns the new node's index.
  std::uint32_t freeze_node(std::uint32_t idx,
                            std::vector<typename FrozenIpTrie<T>::Node>& nodes,
                            std::vector<T>& values,
                            std::vector<Prefix>& prefixes) const {
    const Node& n = arena_[idx];
    const std::uint32_t self = static_cast<std::uint32_t>(nodes.size());
    nodes.emplace_back();
    nodes[self].key = n.key;
    nodes[self].len = n.len;
    if (n.value.has_value()) {
      nodes[self].value_slot = static_cast<std::uint32_t>(values.size());
      values.push_back(*n.value);
      prefixes.emplace_back(Ipv4Address(n.key), n.len);
    }
    if (n.child[0] != kNil) {
      const std::uint32_t c = freeze_node(n.child[0], nodes, values, prefixes);
      nodes[self].child0 = c;
    }
    if (n.child[1] != kNil) {
      const std::uint32_t c = freeze_node(n.child[1], nodes, values, prefixes);
      nodes[self].child1 = c;
    }
    return self;
  }

  std::vector<Node> arena_;  // [0] is the root (len 0)
  std::size_t size_ = 0;
};

}  // namespace lina::net
