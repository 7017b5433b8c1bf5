#pragma once

#include <cstdint>
#include <filesystem>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <utility>

#include "lina/net/frozen_ip_trie.hpp"
#include "lina/net/ip_trie.hpp"
#include "lina/net/ipv4.hpp"
#include "lina/routing/rib.hpp"

namespace lina::routing {

/// One forwarding entry: the selected route's port plus the preference
/// attributes needed to compare routes *across* prefixes (best-port
/// forwarding over an address set picks the address whose route the router
/// prefers most, §3.3.1).
struct FibEntry {
  Port port = 0;
  RouteClass route_class = RouteClass::kProvider;
  std::uint32_t path_length = 0;
  std::uint32_t med = 0;

  friend bool operator==(const FibEntry&, const FibEntry&) = default;
};

class Fib;

/// Returns true if entry `a` is strictly preferred over `b` when choosing
/// which member of an address set to forward toward (mirrors
/// `route_preferred` minus local-pref, which FIBs do not retain).
[[nodiscard]] bool entry_preferred(const FibEntry& a, const FibEntry& b);

/// An immutable snapshot of a Fib and the one reader of its entries:
/// longest-prefix match over the entries present at freeze time, plus a
/// software-prefetched batch `entries_for_many` that keeps several
/// independent descents in flight per cache-miss window and spreads large
/// batches across threads. Built by Fib::freeze().
class FrozenFib {
 public:
  FrozenFib() = default;
  explicit FrozenFib(net::FrozenIpTrie<FibEntry> trie)
      : trie_(std::move(trie)) {}

  /// LPM payload; nullptr if uncovered.
  [[nodiscard]] const FibEntry* entry_for(net::Ipv4Address addr) const {
    return trie_.lookup_value(addr);
  }

  /// The forwarding port for an address, or nullopt if uncovered.
  [[nodiscard]] std::optional<Port> port_for(net::Ipv4Address addr) const {
    const FibEntry* e = trie_.lookup_value(addr);
    if (e == nullptr) return std::nullopt;
    return e->port;
  }

  /// Batch LPM: out[i] = entry_for(addrs[i]); sizes must match. Inputs
  /// longer than 16,384 addresses are split into fixed 16,384-address
  /// blocks that run the prefetched batch walk in parallel on the
  /// lina::exec pool; one block, or a call inside a parallel region,
  /// stays inline. Results and the LPM counters are the same at any
  /// thread count.
  void entries_for_many(std::span<const net::Ipv4Address> addrs,
                        std::span<const FibEntry*> out) const;

  [[nodiscard]] std::size_t size() const { return trie_.size(); }
  [[nodiscard]] std::size_t arena_bytes() const { return trie_.arena_bytes(); }

  /// The underlying frozen trie — serialization view for lina::snap.
  [[nodiscard]] const net::FrozenIpTrie<FibEntry>& trie() const {
    return trie_;
  }

  /// Loads the snapshot named `table` from the lina::snap store at `dir`,
  /// falling back to `live.freeze()` (and bumping
  /// lina.snap.fallback_rebuilds) if the snapshot is missing, truncated,
  /// corrupt, or from an incompatible format version. Never throws on a
  /// bad snapshot — corruption always degrades to a rebuild. Defined in
  /// lina::snap; link lina::snap to use.
  [[nodiscard]] static FrozenFib load_or_rebuild(
      const std::filesystem::path& dir, const std::string& table,
      const Fib& live);

 private:
  net::FrozenIpTrie<FibEntry> trie_;
};

/// A forwarding information base under construction: IP prefixes to
/// selected forwarding entries. Lookups go through `freeze()`.
class Fib {
 public:
  Fib() = default;

  /// Derives a FIB by running best-route selection on every prefix of the
  /// RIB (§6.2.1 rules).
  static Fib from_rib(const Rib& rib);

  void insert(const net::Prefix& prefix, FibEntry entry);

  [[nodiscard]] std::size_t size() const { return trie_.size(); }

  /// Number of distinct output ports — the "next-hop degree" the paper uses
  /// to explain cross-router differences in update rate (§6.2.2).
  [[nodiscard]] std::size_t next_hop_degree() const;

  /// Immutable batched-lookup snapshot (also refreshes the
  /// lina.fib.arena_bytes gauge).
  [[nodiscard]] FrozenFib freeze() const;

  /// Bytes retained from the allocator by the live trie arena.
  [[nodiscard]] std::size_t arena_bytes() const { return trie_.arena_bytes(); }

  /// Deterministic live-table bytes (live nodes × node size) — what the
  /// table-size benches report.
  [[nodiscard]] std::size_t table_bytes() const { return trie_.table_bytes(); }

  /// Visits all entries.
  void visit(const std::function<void(const net::Prefix&, const FibEntry&)>&
                 fn) const {
    trie_.visit(fn);
  }

 private:
  net::IpTrie<FibEntry> trie_;
};

}  // namespace lina::routing
