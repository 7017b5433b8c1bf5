#include "lina/core/name_displacement.hpp"

#include <unordered_set>

#include "lina/core/aggregateability.hpp"
#include "lina/exec/parallel.hpp"
#include "lina/routing/name_fib.hpp"

namespace lina::core {

std::vector<RenameEvent> generate_rename_events(
    std::span<const mobility::ContentTrace> catalog, std::size_t count,
    stats::Rng& rng) {
  // Candidate subdomains (depth >= 3), apex pool (depth 2), and the set of
  // names already taken (renaming onto an existing name would be a
  // collision, not a transfer).
  std::vector<const mobility::ContentTrace*> subdomains;
  std::vector<names::ContentName> apexes;
  std::unordered_set<names::ContentName> taken;
  for (const mobility::ContentTrace& trace : catalog) {
    taken.insert(trace.name());
    if (trace.final_addresses().empty()) continue;
    if (trace.name().depth() >= 3) {
      subdomains.push_back(&trace);
    } else if (trace.name().depth() == 2) {
      apexes.push_back(trace.name());
    }
  }
  if (subdomains.empty() || apexes.size() < 2) return {};

  std::vector<RenameEvent> events;
  events.reserve(count);
  for (std::size_t attempts = 0; events.size() < count && attempts < count * 40;
       ++attempts) {
    const auto& source = *subdomains[rng.index(subdomains.size())];
    const names::ContentName& apex = apexes[rng.index(apexes.size())];
    if (apex.is_prefix_of(source.name())) continue;  // same hierarchy
    // The item keeps its identity under the new owner; disambiguate when
    // the new hierarchy already uses that label.
    names::ContentName target =
        apex.child(std::string(source.name().components().back()));
    if (taken.contains(target)) {
      target = apex.child(std::string(source.name().components().back()) +
                          "-" +
                          std::string(source.name().components()[1]));
    }
    if (!taken.insert(target).second) continue;  // still colliding: skip
    events.push_back({source.name(), target});
  }
  return events;
}

std::vector<RenameDisplacementResult> evaluate_rename_displacement(
    std::span<const routing::VantageRouter> routers,
    std::span<const mobility::ContentTrace> catalog,
    std::span<const RenameEvent> events) {
  // Routers own disjoint name FIBs, so they fan out across the pool and
  // land back in router order.
  return exec::parallel_map(routers.size(), [&](std::size_t r) {
    const routing::VantageRouter& router = routers[r];
    // Seed the name FIB: every catalog name announced on its best port.
    routing::NameFib fib;
    announce_best_ports(router.fib().freeze(), catalog, fib);

    RenameDisplacementResult result;
    result.updates.router = std::string(router.name());
    result.fib_entries_before = fib.size();
    for (const RenameEvent& event : events) {
      if (!fib.port_for(event.from).has_value()) continue;
      ++result.updates.events;
      if (fib.process_rename(event.from, event.to)) {
        ++result.updates.updates;
      }
    }
    result.fib_entries_after = fib.size();
    return result;
  });
}

}  // namespace lina::core
