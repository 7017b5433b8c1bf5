#include "lina/routing/name_fib.hpp"

#include <stdexcept>

namespace lina::routing {

void NameFib::announce(const names::ContentName& prefix, Port port) {
  trie_.insert(prefix, port);
}

std::optional<Port> NameFib::port_for(const names::ContentName& name) const {
  const Port* p = trie_.lookup_value(name);
  if (p == nullptr) return std::nullopt;
  return *p;
}

bool NameFib::process_rename(const names::ContentName& from,
                             const names::ContentName& to) {
  const auto old_port = port_for(from);
  if (!old_port.has_value())
    throw std::invalid_argument("NameFib::process_rename: '" + from.to_dns() +
                                "' has no route");
  const auto new_port = port_for(to);
  if (new_port.has_value() && *new_port == *old_port) return false;
  // Displaced: longest-prefix matching would now send requests for `to`
  // out the wrong port, so pin an exception entry.
  if (trie_.insert(to, *old_port)) ++exceptions_;
  return true;
}

}  // namespace lina::routing
