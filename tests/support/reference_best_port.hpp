#pragma once

// Reference best-port rule (§3.3.1) for the evaluator tests: the router's
// most-preferred entry over an address set, written out over an
// independent LPM table. The table is the pointer trie
// testref::LegacyIpTrie, filled from the FIB's entries through
// `routing::Fib::visit`. The FIB's own arena is no reference: the frozen
// copy production reads is built from it, so a fault in the build would
// show in both.

#include <optional>
#include <span>

#include "lina/net/ipv4.hpp"
#include "lina/routing/fib.hpp"
#include "reference_tries.hpp"

namespace lina::testing {

/// A FIB's entries in the reference pointer trie.
inline testref::LegacyIpTrie<routing::FibEntry> reference_trie(
    const routing::Fib& fib) {
  testref::LegacyIpTrie<routing::FibEntry> trie;
  fib.visit([&trie](const net::Prefix& prefix,
                    const routing::FibEntry& entry) {
    trie.insert(prefix, entry);
  });
  return trie;
}

/// The most-preferred routed entry for `addrs` in `fib` under
/// routing::entry_preferred; nullopt when no address has a route.
inline std::optional<routing::FibEntry> reference_best_entry(
    const testref::LegacyIpTrie<routing::FibEntry>& fib,
    std::span<const net::Ipv4Address> addrs) {
  std::optional<routing::FibEntry> best;
  for (const net::Ipv4Address addr : addrs) {
    const auto hit = fib.lookup(addr);
    if (hit && (!best || routing::entry_preferred(hit->second, *best))) {
      best = hit->second;
    }
  }
  return best;
}

}  // namespace lina::testing
