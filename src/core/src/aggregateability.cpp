#include "lina/core/aggregateability.hpp"

#include "lina/exec/parallel.hpp"
#include "lina/prof/prof.hpp"
#include "lina/strategy/forwarding_strategy.hpp"

namespace lina::core {

void announce_best_ports(const routing::FrozenFib& fib,
                         std::span<const mobility::ContentTrace> batch,
                         routing::NameFib& table) {
  // Final address sets are small and rarely shared, so a frozen-trie walk
  // per address costs less than filling and freeing a per-router memo.
  std::vector<const routing::FibEntry*> entries;
  for (const mobility::ContentTrace& trace : batch) {
    const auto addrs = trace.final_addresses();
    entries.resize(addrs.size());
    for (std::size_t i = 0; i < addrs.size(); ++i) {
      entries[i] = fib.entry_for(addrs[i]);
    }
    const routing::FibEntry* best = strategy::best_entry(entries);
    if (best != nullptr) table.announce(trace.name(), best->port);
  }
}

AggregateabilityAccumulator::AggregateabilityAccumulator(
    std::span<const routing::VantageRouter> routers)
    : states_(exec::parallel_map(routers.size(), [&](std::size_t r) {
        return std::make_unique<RouterState>(
            RouterState{&routers[r], routers[r].fib().freeze(), {}});
      })) {}

void AggregateabilityAccumulator::accumulate(
    std::span<const mobility::ContentTrace> batch) {
  PROF_SPAN("lina.core.aggregateability");
  // Routers own disjoint state, so the per-vantage loop fans out across
  // the pool; within a router, names insert in catalog order exactly as
  // the one-shot evaluation would.
  exec::parallel_for(states_.size(), [&](std::size_t r) {
    RouterState& state = *states_[r];
    announce_best_ports(state.fib, batch, state.table);
  });
}

std::vector<AggregateabilityResult> AggregateabilityAccumulator::finish()
    const {
  std::vector<AggregateabilityResult> results;
  results.reserve(states_.size());
  for (const auto& state : states_) {
    results.push_back(AggregateabilityResult{
        std::string(state->router->name()), state->table.size(),
        state->table.lpm_compressed_size(), state->table.table_bytes()});
  }
  return results;
}

std::vector<AggregateabilityResult> evaluate_aggregateability(
    std::span<const routing::VantageRouter> routers,
    std::span<const mobility::ContentTrace> traces) {
  AggregateabilityAccumulator accumulator(routers);
  accumulator.accumulate(traces);
  return accumulator.finish();
}

}  // namespace lina::core
