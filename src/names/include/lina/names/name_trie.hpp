#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "lina/names/content_name.hpp"
#include "lina/names/interner.hpp"
#include "lina/obs/metrics.hpp"

namespace lina::names {

namespace detail {

/// (parent node, component id) -> child node edge key.
[[nodiscard]] inline std::uint64_t edge_key(std::uint32_t parent,
                                            std::uint32_t label) {
  return (std::uint64_t{parent} << 32) | label;
}

/// splitmix64 finisher: cheap, well-mixed hash for edge keys.
struct EdgeHash {
  std::size_t operator()(std::uint64_t x) const noexcept {
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return static_cast<std::size_t>(x);
  }
};

}  // namespace detail

/// A component-wise trie over hierarchical content names with
/// longest-matching-prefix lookup — the name-based-routing analogue of the
/// IP FIB (Figure 2 right, Figure 3).
///
/// Nodes live in a contiguous arena addressed by 32-bit indices; child
/// selection is a single integer probe on (node, component-id) pairs in
/// one flat hash table, using the ids hash-consed into every ContentName
/// at construction (ComponentInterner::global()) — no string hashing or
/// lexicographic compares on the lookup path. The trie is build-once:
/// entries are inserted or overwritten, never erased, so every arena slot
/// is a live node.
///
/// `lpm_compressed_size()` counts the entries that a router actually needs
/// to store once longest-prefix matching subsumes entries equal to their
/// nearest stored ancestor; `size() / lpm_compressed_size()` is exactly the
/// paper's aggregateability metric (§3.3.2). It is a recount over the
/// finished table, read once per table.
template <typename T>
class NameTrie {
 public:
  /// One parent -> child link: the serialized form of the trie
  /// (lina::snap). `label` is a ComponentInterner::global() id.
  struct Edge {
    std::uint32_t parent;
    std::uint32_t label;
    std::uint32_t child;
  };

  NameTrie() { arena_.emplace_back(); }

  /// Rebuilds a trie from its serialized form: slot i holds `values[i]`
  /// (slot 0 is the root) and `edges` links the slots. Throws
  /// std::invalid_argument unless the edges form one tree rooted at slot
  /// 0: every edge in range, none into slot 0, no slot claimed by two
  /// edges, no duplicate (parent, component) key, and every slot reached
  /// by a walk from slot 0.
  [[nodiscard]] static NameTrie from_edges(std::vector<std::optional<T>> values,
                                           std::span<const Edge> edges);

  /// Inserts or overwrites the value at `name`. Returns true if a new entry
  /// was created.
  bool insert(const ContentName& name, T value) {
    std::uint32_t idx = 0;
    for (const std::uint32_t id : name.component_ids()) {
      const auto it = edges_.find(detail::edge_key(idx, id));
      idx = (it != edges_.end()) ? it->second : link_child(idx, id);
    }
    const bool created = !arena_[idx].value.has_value();
    arena_[idx].value = std::move(value);
    if (created) ++size_;
    obs::metric::name_trie_inserts().add();
    if (!created) obs::metric::name_trie_displacements().add();
    return created;
  }

  /// Longest-matching-prefix lookup: the most specific stored entry whose
  /// name is a hierarchical prefix of `name`.
  [[nodiscard]] std::optional<std::pair<ContentName, T>> lookup(
      const ContentName& name) const {
    std::size_t best_depth = 0;
    const std::uint32_t best = match(name, best_depth);
    if (best == kNil) return std::nullopt;
    const auto components = name.components();
    std::vector<std::string> parts(
        components.begin(),
        components.begin() + static_cast<std::ptrdiff_t>(best_depth));
    return std::make_pair(ContentName(std::move(parts)), *arena_[best].value);
  }

  /// Longest-matching-prefix payload only — no result-name
  /// materialisation; nullptr if uncovered. The per-hop hot path of
  /// NameFib::port_for.
  [[nodiscard]] const T* lookup_value(const ContentName& name) const {
    std::size_t best_depth = 0;
    const std::uint32_t best = match(name, best_depth);
    return best == kNil ? nullptr : &*arena_[best].value;
  }

  /// Exact-match lookup.
  [[nodiscard]] const T* exact(const ContentName& name) const {
    const std::uint32_t idx = descend(name);
    if (idx == kNil || !arena_[idx].value.has_value()) return nullptr;
    return &*arena_[idx].value;
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  /// Visits every stored (name, value) pair in lexicographic trie order
  /// (ids are resolved back to spellings and sorted, so the order matches
  /// the pre-arena std::map layout and never depends on id assignment).
  void visit(
      const std::function<void(const ContentName&, const T&)>& fn) const {
    std::vector<std::string> path;
    visit_node(0, path, fn);
  }

  /// Entries surviving longest-prefix-match subsumption (see class
  /// comment): those whose value differs from their nearest stored
  /// ancestor's. O(n): one walk over the table, with an explicit stack so
  /// a deep table loaded from a snapshot cannot exhaust the call stack.
  [[nodiscard]] std::size_t lpm_compressed_size() const {
    std::size_t count = 0;
    // (slot, value of its nearest stored ancestor or nullptr) to visit.
    std::vector<std::pair<std::uint32_t, const T*>> stack = {{0, nullptr}};
    while (!stack.empty()) {
      const auto [idx, inherited] = stack.back();
      stack.pop_back();
      const Node& n = arena_[idx];
      const T* effective = inherited;
      if (n.value.has_value()) {
        if (inherited == nullptr || !(*inherited == *n.value)) ++count;
        effective = &*n.value;
      }
      for (std::uint32_t c = n.first_child; c != kNil;
           c = arena_[c].next_sibling) {
        stack.emplace_back(c, effective);
      }
    }
    return count;
  }

  void clear() {
    arena_.clear();
    arena_.emplace_back();
    edges_.clear();
    size_ = 0;
  }

  /// Arena occupancy: every slot is a live node (slot 0 is the root).
  [[nodiscard]] std::size_t live_nodes() const { return arena_.size(); }

  /// Deterministic live-table bytes (live nodes × node size + one edge
  /// record per non-root live node) — allocator-growth independent, the
  /// figure the table-size benches report.
  [[nodiscard]] std::size_t table_bytes() const {
    const std::size_t edges = live_nodes() - 1;
    return live_nodes() * sizeof(Node) +
           edges * (sizeof(std::uint64_t) + sizeof(std::uint32_t));
  }

  /// The payload of arena slot `slot` (engaged iff it stores an entry);
  /// with for_each_edge, the serialized form from_edges reads back.
  [[nodiscard]] const std::optional<T>& slot_value(std::size_t slot) const {
    return arena_[slot].value;
  }

  /// Visits every edge, in child-slot order.
  template <typename Fn>
  void for_each_edge(Fn&& fn) const {
    for (std::uint32_t c = 1; c < arena_.size(); ++c) {
      fn(Edge{arena_[c].parent, arena_[c].label, c});
    }
  }

 private:
  static constexpr std::uint32_t kNil = 0xffffffffu;

  struct Node {
    std::uint32_t label = kNil;         // component id on the parent edge
    std::uint32_t parent = kNil;
    std::uint32_t first_child = kNil;
    std::uint32_t next_sibling = kNil;
    std::optional<T> value;
  };
  // table_bytes() counts nodes of exactly this layout, and the
  // aggregateability benches gate on it.
  static_assert(sizeof(Node) == 16 + sizeof(std::optional<T>));

  std::uint32_t link_child(std::uint32_t parent, std::uint32_t id) {
    const auto idx = static_cast<std::uint32_t>(arena_.size());
    arena_.emplace_back();
    attach(parent, id, idx);
    edges_.emplace(detail::edge_key(parent, id), idx);
    return idx;
  }

  /// Links slot `idx` under `parent` by component `id` (child list only).
  void attach(std::uint32_t parent, std::uint32_t id, std::uint32_t idx) {
    Node& n = arena_[idx];
    n.label = id;
    n.parent = parent;
    n.next_sibling = arena_[parent].first_child;
    arena_[parent].first_child = idx;
  }

  [[nodiscard]] std::uint32_t descend(const ContentName& name) const {
    std::uint32_t idx = 0;
    for (const std::uint32_t id : name.component_ids()) {
      const auto it = edges_.find(detail::edge_key(idx, id));
      if (it == edges_.end()) return kNil;
      idx = it->second;
    }
    return idx;
  }

  /// LPM walk; returns the best valued node (kNil on miss) and its depth.
  [[nodiscard]] std::uint32_t match(const ContentName& name,
                                    std::size_t& best_depth) const {
    std::uint32_t idx = 0;
    std::uint32_t best = arena_[0].value.has_value() ? 0 : kNil;
    std::size_t depth = 0;
    std::uint64_t visited = 1;  // the root
    best_depth = 0;
    for (const std::uint32_t id : name.component_ids()) {
      const auto it = edges_.find(detail::edge_key(idx, id));
      if (it == edges_.end()) break;
      idx = it->second;
      ++depth;
      ++visited;
      if (arena_[idx].value.has_value()) {
        best = idx;
        best_depth = depth;
      }
    }
    obs::metric::name_trie_lpm_lookups().add();
    obs::metric::name_trie_lpm_node_visits().add(visited);
    return best;
  }

  // --- traversal ---------------------------------------------------------

  /// Children of `idx` sorted by component spelling — id-assignment
  /// independent, matching the old std::map child order.
  [[nodiscard]] std::vector<std::uint32_t> sorted_children(
      std::uint32_t idx) const {
    std::vector<std::uint32_t> children;
    for (std::uint32_t c = arena_[idx].first_child; c != kNil;
         c = arena_[c].next_sibling) {
      children.push_back(c);
    }
    const ComponentInterner& interner = ComponentInterner::global();
    std::sort(children.begin(), children.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                return interner.spelling(arena_[a].label) <
                       interner.spelling(arena_[b].label);
              });
    return children;
  }

  void visit_node(std::uint32_t idx, std::vector<std::string>& path,
                  const std::function<void(const ContentName&, const T&)>& fn)
      const {
    const Node& n = arena_[idx];
    if (n.value.has_value()) fn(ContentName(path), *n.value);
    for (const std::uint32_t c : sorted_children(idx)) {
      path.emplace_back(ComponentInterner::global().spelling(arena_[c].label));
      visit_node(c, path, fn);
      path.pop_back();
    }
  }

  std::vector<Node> arena_;  // [0] is the root
  std::unordered_map<std::uint64_t, std::uint32_t, detail::EdgeHash> edges_;
  std::size_t size_ = 0;
};

template <typename T>
NameTrie<T> NameTrie<T>::from_edges(std::vector<std::optional<T>> values,
                                    std::span<const Edge> edges) {
  const std::size_t slots = values.size();
  if (slots == 0) throw std::invalid_argument("no root slot");
  NameTrie trie;
  trie.arena_.resize(slots);
  trie.edges_.reserve(edges.size());
  const auto reject = [](const Edge& e, const std::string& why) {
    return std::invalid_argument("edge " + std::to_string(e.parent) +
                                 " -> " + std::to_string(e.child) + " " + why);
  };
  for (const Edge& e : edges) {
    if (e.parent >= slots || e.child >= slots) {
      throw reject(e, "leaves the " + std::to_string(slots) + " slots");
    }
    if (e.child == 0) throw reject(e, "points into the root slot 0");
    if (trie.arena_[e.child].parent != kNil) {
      throw reject(e, "claims slot " + std::to_string(e.child) +
                          ", which another edge already claims");
    }
    if (!trie.edges_.emplace(detail::edge_key(e.parent, e.label), e.child)
             .second) {
      throw reject(e, "duplicates the (parent, component id " +
                          std::to_string(e.label) + ") key");
    }
    trie.attach(e.parent, e.label, e.child);
  }
  // Each slot has at most one parent and the root has none, so a walk
  // from the root meets every slot at most once; slots it misses are
  // orphans or sit on a cycle.
  std::size_t reached = 0;
  std::vector<std::uint32_t> stack = {0};
  while (!stack.empty()) {
    const std::uint32_t idx = stack.back();
    stack.pop_back();
    ++reached;
    for (std::uint32_t c = trie.arena_[idx].first_child; c != kNil;
         c = trie.arena_[c].next_sibling) {
      stack.push_back(c);
    }
  }
  if (reached != slots) {
    throw std::invalid_argument(
        std::to_string(slots - reached) +
        " slots are not reachable from the root (orphan or cycle)");
  }
  for (std::size_t i = 0; i < slots; ++i) {
    if (values[i].has_value()) ++trie.size_;
    trie.arena_[i].value = std::move(values[i]);
  }
  return trie;
}

}  // namespace lina::names
