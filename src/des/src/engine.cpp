#include "lina/des/engine.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "lina/des/detail.hpp"
#include "lina/obs/metrics.hpp"
#include "lina/prof/prof.hpp"
#include "lina/topology/geo.hpp"

namespace lina::des {

std::size_t ShardMap::nearest_anchor(
    const topology::GeoPoint& at,
    std::span<const topology::GeoPoint> anchors) {
  std::size_t nearest = 0;
  double best = detail::kInf;
  for (std::size_t i = 0; i < anchors.size(); ++i) {
    const double km = topology::great_circle_km(at, anchors[i]);
    // Strict less-than: equidistant anchors keep the lowest index (the
    // documented tie-break — see engine.hpp; pinned by tests/des).
    if (km < best) {
      best = km;
      nearest = i;
    }
  }
  return nearest;
}

ShardMap ShardMap::from_topology(const routing::SyntheticInternet& internet,
                                 std::size_t shard_count) {
  ShardMap map;
  map.shard_count_ = std::max<std::size_t>(1, shard_count);
  const topology::AsGraph& graph = internet.graph();
  const std::span<const topology::GeoPoint> anchors =
      topology::metro_anchors();
  map.shard_of_as_.resize(graph.as_count());
  for (topology::AsId as = 0; as < graph.as_count(); ++as) {
    map.shard_of_as_[as] = static_cast<std::uint32_t>(
        nearest_anchor(graph.location(as), anchors) % map.shard_count_);
  }
  return map;
}

void ShardedEngine::ShardQueue::push(EventRecord record) {
  record.seq = next_seq++;
  heap.push_back(record);
  std::push_heap(heap.begin(), heap.end(), detail::later);
}

EventRecord ShardedEngine::ShardQueue::pop() {
  std::pop_heap(heap.begin(), heap.end(), detail::later);
  EventRecord record = heap.back();
  heap.pop_back();
  return record;
}

ShardedEngine::ShardedEngine(const PacketModel& model, const ShardMap& map,
                             EngineConfig config)
    : model_(&model), map_(&map), config_(config) {
  if (std::isnan(config_.window_ms) || config_.window_ms < 0.0)
    throw std::invalid_argument("ShardedEngine: bad window_ms");
  config_.shard_count = map.shard_count();
  const std::size_t shard_count = config_.shard_count;
  shards_.resize(shard_count);
  mailboxes_.resize(shard_count * shard_count);
  lookahead_ms_ =
      config_.window_ms > 0.0 ? config_.window_ms : auto_window_ms();
}

std::uint32_t ShardedEngine::owner_shard(const EventRecord& record) const {
  return map_->shard_of(record.at);
}

double ShardedEngine::auto_window_ms() const {
  // The conservative safe horizon: the smallest delay any cross-shard
  // handoff can carry. Same-shard events never cross a barrier, so only
  // links whose endpoints map to different shards bound the window.
  const topology::AsGraph& graph = model_->fabric().internet().graph();
  double min_delay = detail::kInf;
  for (topology::AsId as = 0; as < graph.as_count(); ++as) {
    for (const topology::AsGraph::Link& link : graph.links(as)) {
      if (link.neighbor < as) continue;  // each adjacency once
      if (map_->shard_of(as) == map_->shard_of(link.neighbor)) continue;
      min_delay =
          std::min(min_delay, model_->fabric().link_delay_ms(as,
                                                             link.neighbor));
    }
  }
  if (min_delay <= 0.0) return detail::kZeroLookaheadWindowMs;
  return min_delay;  // kInf when the whole topology fits one shard
}

void ShardedEngine::seed_sessions() {
  for (std::uint32_t i = 0; i < model_->session_count(); ++i) {
    const EventRecord record = model_->initial_event(i);
    shards_[owner_shard(record)].push(record);
  }
}

double ShardedEngine::global_min_time() const {
  double min_time = detail::kInf;
  for (const ShardQueue& shard : shards_) {
    if (!shard.empty()) min_time = std::min(min_time, shard.top_time());
  }
  return min_time;
}

void ShardedEngine::finish_stats(RunStats& stats) const {
  const std::size_t shard_count = config_.shard_count;
  stats.lookahead_ms = lookahead_ms_;
  stats.shard_events.resize(shard_count);
  std::uint64_t max_events = 0;
  for (std::size_t s = 0; s < shard_count; ++s) {
    stats.digest.combine(shards_[s].digest);
    stats.events += shards_[s].executed;
    stats.shard_events[s] = shards_[s].executed;
    max_events = std::max(max_events, shards_[s].executed);
    obs::metric::des_shard_events().record(
        static_cast<double>(shards_[s].executed));
  }
  if (stats.events > 0) {
    const double mean = static_cast<double>(stats.events) /
                        static_cast<double>(shard_count);
    stats.shard_imbalance = static_cast<double>(max_events) / mean;
  }
  obs::metric::des_events_executed().add(stats.events);
  obs::metric::des_windows().add(stats.windows);
  obs::metric::des_handoffs().add(stats.handoffs);
  obs::metric::des_redrain_passes().add(stats.redrain_passes);
  obs::metric::des_bundles_sealed().add(stats.bundles);
  obs::metric::des_shards().set(static_cast<double>(shard_count));
  obs::metric::des_shard_imbalance().set(stats.shard_imbalance);
  obs::metric::des_lookahead_ms().set(
      lookahead_ms_ < detail::kInf ? lookahead_ms_ : -1.0);
}

RunStats ShardedEngine::run() {
  PROF_SPAN("lina.des.run");
  seed_sessions();
  const std::size_t shard_count = config_.shard_count;
  RunStats stats;
  double window_start = global_min_time();
  while (window_start < detail::kInf) {
    const double horizon = window_start + lookahead_ms_;
    stats.windows += 1;
    bool rerun_window = true;
    while (rerun_window) {
      {
        PROF_SPAN("lina.des.window");
        for (std::size_t s = 0; s < shard_count; ++s) {
          ShardQueue& shard = shards_[s];
          const auto emit = [&](const EventRecord& next) {
            const std::uint32_t owner = owner_shard(next);
            if (owner == s) {
              shard.push(next);
            } else {
              mailboxes_[s * shard_count + owner].append(next);
            }
          };
          while (!shard.empty() && shard.top_time() < horizon) {
            const EventRecord record = shard.pop();
            shard.executed += 1;
            model_->handle(record, shard.digest, emit);
          }
        }
      }
      // Barrier reached: hand mailbox columns to their owners. A handoff
      // that landed inside the still-open window (zero lookahead, or a
      // window wider than the true lookahead) must run before the window
      // closes: go around again. Chains are bounded by the packet hop
      // TTL, so the fixpoint terminates.
      rerun_window = false;
      {
        PROF_SPAN("lina.des.drain");
        for (std::size_t dst = 0; dst < shard_count; ++dst) {
          for (std::size_t src = 0; src < shard_count; ++src) {
            BundleChain& box = mailboxes_[src * shard_count + dst];
            stats.bundles += box.pending_bundles();
            stats.handoffs += box.drain([&](const EventRecord& record) {
              if (record.time_ms < horizon) rerun_window = true;
              shards_[dst].push(record);
            });
          }
        }
      }
      if (rerun_window) stats.redrain_passes += 1;
    }
    const double next_time = global_min_time();
    if (next_time >= detail::kInf) break;
    // Advance at least one window; skip straight to the window holding
    // the next event so sparse periods cost no empty barriers.
    window_start = horizon;
    if (lookahead_ms_ < detail::kInf && next_time > horizon) {
      window_start =
          horizon +
          lookahead_ms_ * std::floor((next_time - horizon) / lookahead_ms_);
    }
  }
  finish_stats(stats);
  return stats;
}

}  // namespace lina::des
