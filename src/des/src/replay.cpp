#include "lina/des/replay.hpp"

#include <algorithm>

#include "lina/exec/parallel.hpp"
#include "lina/obs/metrics.hpp"
#include "lina/prof/prof.hpp"
#include "lina/trace/replay.hpp"

namespace lina::des {

namespace {

/// One batch's session arena. `next_user` carries the global user index
/// across batches: the digest folds it in, so it must follow stream
/// order, not the batch-local session slot, for the digest to stay
/// invariant across batch sizes.
PacketModel build_batch_model(const sim::ForwardingFabric& fabric,
                              const std::vector<mobility::DeviceTrace>& batch,
                              const PacketReplayConfig& config,
                              std::uint64_t& next_user) {
  PacketModel model(fabric, config.architecture, config.failures);
  for (const mobility::DeviceTrace& trace : batch) {
    SessionParams params;
    params.digest_id = next_user++;
    params.correspondent = config.correspondent;
    params.schedule = trace::session_schedule_from_trace(trace, config.hours);
    params.duration_ms = config.hours * 1000.0;
    params.interval_ms = config.interval_ms;
    params.resolver_ttl_ms = config.resolver_ttl_ms;
    if (!config.replicas.empty()) {
      params.resolver_as = config.replicas.front();
      params.resolver_replicas = config.replicas;
    }
    model.add_session(params);
  }
  return model;
}

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
  total.rollbacks += run.rollbacks;
  total.rolled_back_events += run.rolled_back_events;
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
  const ShardMap map = ShardMap::from_topology(
      fabric.internet(), config.engine.shard_count);
  // Batches are independent, so the parallelism is across them: each
  // batch runs its own engine on one thread, with no window barriers
  // between threads.
  const std::size_t threads = config.engine.threads == 0
                                  ? exec::default_threads()
                                  : config.engine.threads;
  EngineConfig engine = config.engine;
  engine.threads = 1;

  trace::DeviceTraceStream stream(set);
  PacketReplayStats total;
  std::uint64_t next_user = 0;
  std::vector<PacketModel> round;
  while (!stream.done()) {
    // Decoding stays on the calling thread, one batch at a time: only the
    // compact models of a round outlive their decoded traces.
    round.clear();
    while (round.size() < threads && !stream.done()) {
      const std::vector<mobility::DeviceTrace> batch =
          stream.next_batch(config.batch_users);
      if (batch.empty()) break;
      round.push_back(build_batch_model(fabric, batch, config, next_user));
    }
    if (round.empty()) break;
    const std::vector<RunStats> runs = exec::parallel_map(
        round.size(),
        [&](std::size_t i) {
          return config.serial ? run_serial(round[i])
                               : ShardedEngine(round[i], map, engine).run();
        },
        threads);
    for (std::size_t i = 0; i < runs.size(); ++i) {
      fold(total, round[i].session_count(), runs[i]);
    }
  }
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
