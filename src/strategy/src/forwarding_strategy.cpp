#include "lina/strategy/forwarding_strategy.hpp"

#include <algorithm>
#include <stdexcept>

namespace lina::strategy {

std::string_view strategy_name(StrategyKind kind) {
  switch (kind) {
    case StrategyKind::kBestPort:
      return "best-port";
    case StrategyKind::kControlledFlooding:
      return "controlled-flooding";
    case StrategyKind::kHistoryUnion:
      return "history-union";
  }
  throw std::invalid_argument("strategy_name: unknown kind");
}

void eligible_ports(std::span<const routing::FibEntry* const> entries,
                    std::vector<routing::Port>& out) {
  out.clear();
  for (const routing::FibEntry* entry : entries) {
    if (entry != nullptr) out.push_back(entry->port);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
}

const routing::FibEntry* best_entry(
    std::span<const routing::FibEntry* const> entries) {
  const routing::FibEntry* best = nullptr;
  for (const routing::FibEntry* entry : entries) {
    if (entry == nullptr) continue;
    if (best == nullptr || routing::entry_preferred(*entry, *best)) {
      best = entry;
    }
  }
  return best;
}

bool ForwardingStrategy::commit_next() {
  const bool changed = initialized_ && next_ != ports_;
  ports_.swap(next_);
  initialized_ = true;
  return changed;
}

namespace {

class BestPortStrategy final : public ForwardingStrategy {
 public:
  [[nodiscard]] StrategyKind kind() const override {
    return StrategyKind::kBestPort;
  }

  bool observe(std::span<const routing::FibEntry* const> entries) override {
    next_.clear();
    if (const routing::FibEntry* best = best_entry(entries)) {
      next_.push_back(best->port);
    }
    return commit_next();
  }
};

class ControlledFloodingStrategy final : public ForwardingStrategy {
 public:
  [[nodiscard]] StrategyKind kind() const override {
    return StrategyKind::kControlledFlooding;
  }

  bool observe(std::span<const routing::FibEntry* const> entries) override {
    eligible_ports(entries, next_);
    return commit_next();
  }
};

class HistoryUnionStrategy final : public ForwardingStrategy {
 public:
  [[nodiscard]] StrategyKind kind() const override {
    return StrategyKind::kHistoryUnion;
  }

  bool observe(std::span<const routing::FibEntry* const> entries) override {
    // FIB state covers the union of every address ever observed (§3.3.3).
    // The FIB is fixed, so that union's ports are the union of each
    // observation's ports: the set only grows, and an update happens only
    // when a genuinely new network location adds a new port.
    bool grew = false;
    for (const routing::FibEntry* entry : entries) {
      if (entry == nullptr) continue;
      const auto it = std::lower_bound(ports_.begin(), ports_.end(),
                                       entry->port);
      if (it != ports_.end() && *it == entry->port) continue;
      ports_.insert(it, entry->port);
      grew = true;
    }
    const bool changed = initialized_ && grew;
    initialized_ = true;
    return changed;
  }
};

}  // namespace

std::unique_ptr<ForwardingStrategy> make_strategy(StrategyKind kind) {
  switch (kind) {
    case StrategyKind::kBestPort:
      return std::make_unique<BestPortStrategy>();
    case StrategyKind::kControlledFlooding:
      return std::make_unique<ControlledFloodingStrategy>();
    case StrategyKind::kHistoryUnion:
      return std::make_unique<HistoryUnionStrategy>();
  }
  throw std::invalid_argument("make_strategy: unknown kind");
}

}  // namespace lina::strategy
