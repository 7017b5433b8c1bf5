#pragma once

// Reference (pre-optimisation) trie implementations, kept verbatim minus
// instrumentation and erase (the production tries are build-once): the
// uncompressed pointer-per-node binary IP trie and the std::map-per-node
// name trie the arena engines replaced. The `fib` differential suite
// replays identical operation streams against these and the production
// tries and asserts observable equality; the micro benchmarks report them
// as the "legacy" baseline.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "lina/names/content_name.hpp"
#include "lina/net/ipv4.hpp"

namespace lina::testref {

/// The original one-node-per-bit binary trie keyed by IP prefixes.
template <typename T>
class LegacyIpTrie {
 public:
  LegacyIpTrie() = default;

  LegacyIpTrie(const LegacyIpTrie&) = delete;
  LegacyIpTrie& operator=(const LegacyIpTrie&) = delete;
  LegacyIpTrie(LegacyIpTrie&&) noexcept = default;
  LegacyIpTrie& operator=(LegacyIpTrie&&) noexcept = default;

  bool insert(const net::Prefix& prefix, T value) {
    Node* node = descend_or_create(prefix);
    const bool created = !node->value.has_value();
    node->value = std::move(value);
    if (created) ++size_;
    return created;
  }

  [[nodiscard]] std::optional<std::pair<net::Prefix, T>> lookup(
      net::Ipv4Address addr) const {
    const Node* best = nullptr;
    net::Prefix best_prefix;
    const Node* node = root_.get();
    net::Prefix path(net::Ipv4Address(0), 0);
    unsigned depth = 0;
    while (node != nullptr) {
      if (node->value.has_value()) {
        best = node;
        best_prefix = path;
      }
      if (depth == 32) break;
      const bool bit = addr.bit(depth);
      path = net::Prefix(addr, depth + 1);
      node = bit ? node->one.get() : node->zero.get();
      ++depth;
    }
    if (best == nullptr) return std::nullopt;
    return std::make_pair(best_prefix, *best->value);
  }

  [[nodiscard]] const T* exact(const net::Prefix& prefix) const {
    const Node* node = descend(prefix);
    return (node != nullptr && node->value.has_value()) ? &*node->value
                                                        : nullptr;
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  void visit(
      const std::function<void(const net::Prefix&, const T&)>& fn) const {
    visit_node(root_.get(), net::Prefix(net::Ipv4Address(0), 0), fn);
  }

  void clear() {
    root_ = std::make_unique<Node>();
    size_ = 0;
  }

 private:
  struct Node {
    std::optional<T> value;
    std::unique_ptr<Node> zero;
    std::unique_ptr<Node> one;
  };

  const Node* descend(const net::Prefix& prefix) const {
    const Node* node = root_.get();
    for (unsigned depth = 0; depth < prefix.length() && node != nullptr;
         ++depth) {
      node = prefix.network().bit(depth) ? node->one.get() : node->zero.get();
    }
    return node;
  }

  Node* descend_or_create(const net::Prefix& prefix) {
    Node* node = root_.get();
    for (unsigned depth = 0; depth < prefix.length(); ++depth) {
      std::unique_ptr<Node>& child =
          prefix.network().bit(depth) ? node->one : node->zero;
      if (!child) child = std::make_unique<Node>();
      node = child.get();
    }
    return node;
  }

  static void visit_node(
      const Node* node, const net::Prefix& path,
      const std::function<void(const net::Prefix&, const T&)>& fn) {
    if (node == nullptr) return;
    if (node->value.has_value()) fn(path, *node->value);
    if (path.length() == 32) return;
    visit_node(node->zero.get(), path.left_half(), fn);
    visit_node(node->one.get(), path.right_half(), fn);
  }

  std::unique_ptr<Node> root_ = std::make_unique<Node>();
  std::size_t size_ = 0;
};

/// The original std::map-per-node component trie over content names.
template <typename T>
class LegacyNameTrie {
 public:
  LegacyNameTrie() = default;

  LegacyNameTrie(const LegacyNameTrie&) = delete;
  LegacyNameTrie& operator=(const LegacyNameTrie&) = delete;
  LegacyNameTrie(LegacyNameTrie&&) noexcept = default;
  LegacyNameTrie& operator=(LegacyNameTrie&&) noexcept = default;

  bool insert(const names::ContentName& name, T value) {
    Node* node = &root_;
    for (const auto& component : name.components()) {
      auto& child = node->children[component];
      if (!child) child = std::make_unique<Node>();
      node = child.get();
    }
    const bool created = !node->value.has_value();
    node->value = std::move(value);
    if (created) ++size_;
    return created;
  }

  [[nodiscard]] std::optional<std::pair<names::ContentName, T>> lookup(
      const names::ContentName& name) const {
    std::size_t best_depth = 0;
    const Node* best = match(name, best_depth);
    if (best == nullptr) return std::nullopt;
    std::vector<std::string> parts(
        name.components().begin(),
        name.components().begin() + static_cast<std::ptrdiff_t>(best_depth));
    return std::make_pair(names::ContentName(std::move(parts)), *best->value);
  }

  /// LPM payload only — the reference for NameTrie::lookup_value.
  [[nodiscard]] const T* lookup_value(const names::ContentName& name) const {
    std::size_t best_depth = 0;
    const Node* best = match(name, best_depth);
    return best == nullptr ? nullptr : &*best->value;
  }

  [[nodiscard]] const T* exact(const names::ContentName& name) const {
    const Node* node = descend(name);
    return (node != nullptr && node->value.has_value()) ? &*node->value
                                                        : nullptr;
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  void visit(const std::function<void(const names::ContentName&, const T&)>&
                 fn) const {
    std::vector<std::string> path;
    visit_node(&root_, path, fn);
  }

  [[nodiscard]] std::size_t lpm_compressed_size() const {
    return compressed_count(&root_, nullptr);
  }

  void clear() {
    root_ = Node{};
    size_ = 0;
  }

 private:
  struct Node {
    std::optional<T> value;
    std::map<std::string, std::unique_ptr<Node>> children;
  };

  const Node* match(const names::ContentName& name,
                    std::size_t& best_depth) const {
    const Node* node = &root_;
    const Node* best = root_.value.has_value() ? &root_ : nullptr;
    std::size_t depth = 0;
    best_depth = 0;
    for (const auto& component : name.components()) {
      const auto it = node->children.find(component);
      if (it == node->children.end()) break;
      node = it->second.get();
      ++depth;
      if (node->value.has_value()) {
        best = node;
        best_depth = depth;
      }
    }
    return best;
  }

  const Node* descend(const names::ContentName& name) const {
    const Node* node = &root_;
    for (const auto& component : name.components()) {
      const auto it = node->children.find(component);
      if (it == node->children.end()) return nullptr;
      node = it->second.get();
    }
    return node;
  }

  static void visit_node(
      const Node* node, std::vector<std::string>& path,
      const std::function<void(const names::ContentName&, const T&)>& fn) {
    if (node->value.has_value()) fn(names::ContentName(path), *node->value);
    for (const auto& [component, child] : node->children) {
      path.push_back(component);
      visit_node(child.get(), path, fn);
      path.pop_back();
    }
  }

  static std::size_t compressed_count(const Node* node, const T* inherited) {
    std::size_t count = 0;
    const T* effective = inherited;
    if (node->value.has_value()) {
      if (inherited == nullptr || !(*inherited == *node->value)) ++count;
      effective = &*node->value;
    }
    for (const auto& [_, child] : node->children) {
      count += compressed_count(child.get(), effective);
    }
    return count;
  }

  Node root_;
  std::size_t size_ = 0;
};

}  // namespace lina::testref
