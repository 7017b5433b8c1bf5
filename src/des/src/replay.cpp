#include "lina/des/replay.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>

#include "lina/exec/parallel.hpp"
#include "lina/obs/metrics.hpp"
#include "lina/prof/prof.hpp"
#include "lina/trace/replay.hpp"

namespace lina::des {

namespace {

/// One user's session. `user_index` is the user's global stream position:
/// the digest folds it in, so it must not be the batch-local session slot,
/// for the digest to stay invariant across batch sizes.
SessionParams session_params(const mobility::DeviceTrace& trace,
                             const PacketReplayConfig& config,
                             std::uint64_t user_index) {
  SessionParams params;
  params.digest_id = user_index;
  params.correspondent = config.correspondent;
  params.schedule = trace::session_schedule_from_trace(trace, config.hours);
  params.duration_ms = config.hours * 1000.0;
  params.interval_ms = config.interval_ms;
  params.resolver_ttl_ms = config.resolver_ttl_ms;
  if (!config.replicas.empty()) {
    params.resolver_as = config.replicas.front();
    params.resolver_replicas = config.replicas;
  }
  return params;
}

struct BatchRun {
  std::uint64_t sessions = 0;
  RunStats run;
};

void fold(PacketReplayStats& total, std::uint64_t sessions,
          const RunStats& run) {
  total.sessions += sessions;
  total.digest.combine(run.digest);
  total.events += run.events;
  total.windows += run.windows;
  total.handoffs += run.handoffs;
  total.batches += 1;
  total.redrain_passes += run.redrain_passes;
  total.bundles += run.bundles;
  if (total.shard_events.size() < run.shard_events.size()) {
    total.shard_events.resize(run.shard_events.size());
  }
  for (std::size_t s = 0; s < run.shard_events.size(); ++s) {
    total.shard_events[s] += run.shard_events[s];
  }
}

}  // namespace

PacketReplayStats replay_packets_streamed(
    const sim::ForwardingFabric& fabric, const trace::ShardSet& set,
    const PacketReplayConfig& config) {
  PROF_SPAN("lina.des.replay");
  if (config.batch_users == 0) {
    throw std::invalid_argument(
        "replay_packets_streamed: batch_users must be positive");
  }
  const ShardMap map = ShardMap::from_topology(
      fabric.internet(), config.engine.shard_count);
  const std::size_t users = set.user_count();
  const std::size_t batches =
      (users + config.batch_users - 1) / config.batch_users;

  // Batches are independent, so the parallelism is across them: each task
  // decodes its own users, builds its model and runs its engine on one
  // thread. Users stream into the model one at a time, and the task's
  // shard reader is gone before its engine runs.
  const std::vector<BatchRun> runs =
      exec::parallel_map(batches, [&](std::size_t b) {
        const std::size_t first = b * config.batch_users;
        const std::size_t last = std::min(users, first + config.batch_users);
        PacketModel model(fabric, config.architecture, config.failures);
        {
          trace::DeviceTraceStream stream(set, first);
          for (std::size_t user = first; user < last; ++user) {
            model.add_session(session_params(stream.next().value(), config,
                                             user));
          }
        }
        BatchRun batch;
        batch.sessions = model.session_count();
        batch.run = config.serial
                        ? run_serial(model)
                        : ShardedEngine(model, map, config.engine).run();
        return batch;
      });

  PacketReplayStats total;
  for (const BatchRun& batch : runs) fold(total, batch.sessions, batch.run);
  if (!total.shard_events.empty() && total.events > 0) {
    const std::uint64_t max_events = *std::max_element(
        total.shard_events.begin(), total.shard_events.end());
    total.shard_imbalance =
        static_cast<double>(max_events) /
        (static_cast<double>(total.events) /
         static_cast<double>(total.shard_events.size()));
    // Batches finish in any order at threads > 1; the replay total keeps
    // the exported gauge deterministic.
    obs::metric::des_shard_imbalance().set(total.shard_imbalance);
  }
  return total;
}

}  // namespace lina::des
