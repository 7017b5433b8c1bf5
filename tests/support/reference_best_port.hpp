#pragma once

// Reference best-port rule (§3.3.1) for the evaluator tests: the router's
// most-preferred entry over an address set, written out over the live
// pointer trie (`routing::Fib::lookup`), independent of the frozen arena
// and of `strategy::best_entry` that production uses.

#include <optional>
#include <span>

#include "lina/net/ipv4.hpp"
#include "lina/routing/fib.hpp"

namespace lina::testing {

/// The most-preferred routed entry for `addrs` at `fib` under
/// routing::entry_preferred; nullopt when no address has a route.
inline std::optional<routing::FibEntry> reference_best_entry(
    const routing::Fib& fib, std::span<const net::Ipv4Address> addrs) {
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
