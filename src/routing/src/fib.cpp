#include "lina/routing/fib.hpp"

#include <algorithm>

#include "lina/exec/parallel.hpp"
#include "lina/obs/metrics.hpp"

namespace lina::routing {

bool entry_preferred(const FibEntry& a, const FibEntry& b) {
  if (a.route_class != b.route_class) return a.route_class < b.route_class;
  if (a.path_length != b.path_length) return a.path_length < b.path_length;
  if (a.med != b.med) return a.med < b.med;
  return a.port < b.port;
}

namespace {

/// Addresses per parallel task of FrozenFib::entries_for_many.
constexpr std::size_t kLookupBlock = 16384;

}  // namespace

void FrozenFib::entries_for_many(std::span<const net::Ipv4Address> addrs,
                                 std::span<const FibEntry*> out) const {
  if (addrs.size() <= kLookupBlock) {
    trie_.lookup_many(addrs, out);
    return;
  }
  // Blocks are fixed-size, so the split does not depend on the thread
  // count; each block writes only its own slice of `out`.
  const std::size_t blocks = (addrs.size() + kLookupBlock - 1) / kLookupBlock;
  exec::parallel_for(blocks, [&](std::size_t b) {
    const std::size_t begin = b * kLookupBlock;
    const std::size_t n = std::min(kLookupBlock, addrs.size() - begin);
    trie_.lookup_many(addrs.subspan(begin, n), out.subspan(begin, n));
  });
}

Fib Fib::from_rib(const Rib& rib) {
  Fib fib;
  for (const net::Prefix& prefix : rib.prefixes()) {
    const auto best = rib.best(prefix);
    if (!best.has_value()) continue;
    fib.insert(prefix,
               FibEntry{.port = best->port(),
                        .route_class = best->route_class,
                        .path_length =
                            static_cast<std::uint32_t>(best->as_path.length()),
                        .med = best->med});
  }
  return fib;
}

void Fib::insert(const net::Prefix& prefix, FibEntry entry) {
  trie_.insert(prefix, entry);
}

FrozenFib Fib::freeze() const {
  obs::metric::fib_arena_bytes().set(
      static_cast<double>(trie_.arena_bytes()));
  return FrozenFib(trie_.freeze());
}

std::size_t Fib::next_hop_degree() const {
  std::set<Port> ports;
  trie_.visit([&ports](const net::Prefix&, const FibEntry& e) {
    ports.insert(e.port);
  });
  return ports.size();
}

}  // namespace lina::routing
