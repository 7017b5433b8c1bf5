#pragma once

#include <optional>
#include <unordered_map>

#include "lina/net/ipv4.hpp"
#include "lina/routing/fib.hpp"

namespace lina::strategy {

/// Answers "which forwarding entry does this router use for this address"
/// for callers that resolve addresses one at a time (best_entry over a
/// name's final address set). Abstracting it lets them memoize
/// longest-prefix-match lookups across repeated addresses.
class PortOracle {
 public:
  virtual ~PortOracle() = default;

  /// The router's selected entry for `addr`, or nullopt if no prefix covers
  /// it.
  [[nodiscard]] virtual std::optional<routing::FibEntry> entry_for(
      net::Ipv4Address addr) const = 0;

  /// Convenience: just the output port.
  [[nodiscard]] std::optional<routing::Port> port_for(
      net::Ipv4Address addr) const {
    const auto entry = entry_for(addr);
    if (!entry.has_value()) return std::nullopt;
    return entry->port;
  }

 protected:
  PortOracle() = default;
};

/// Direct (uncached) oracle over a FIB.
class FibOracle final : public PortOracle {
 public:
  explicit FibOracle(const routing::Fib& fib) : fib_(&fib) {}

  [[nodiscard]] std::optional<routing::FibEntry> entry_for(
      net::Ipv4Address addr) const override {
    const auto hit = fib_->lookup(addr);
    if (!hit.has_value()) return std::nullopt;
    return hit->second;
  }

 private:
  const routing::Fib* fib_;
};

/// Memoizing oracle: each distinct address triggers one trie walk, after
/// which lookups are O(1). Correct because FIBs are immutable during an
/// evaluation pass.
class CachingFibOracle final : public PortOracle {
 public:
  explicit CachingFibOracle(const routing::Fib& fib) : fib_(&fib) {}

  [[nodiscard]] std::optional<routing::FibEntry> entry_for(
      net::Ipv4Address addr) const override {
    const auto [it, inserted] = cache_.try_emplace(addr.value());
    if (inserted) {
      const auto hit = fib_->lookup(addr);
      if (hit.has_value()) it->second = hit->second;
    }
    return it->second;
  }

  [[nodiscard]] std::size_t cached_addresses() const { return cache_.size(); }

 private:
  const routing::Fib* fib_;
  mutable std::unordered_map<std::uint32_t, std::optional<routing::FibEntry>>
      cache_;
};

}  // namespace lina::strategy
