// Extension experiment (not a paper figure): validates the §2/§5 trade-offs
// dynamically by forwarding packets. A remote correspondent streams CBR
// traffic at a mobile device roaming per the NomadLog-substitute model;
// the architectures are compared on delivery ratio, data-path stretch,
// handoff outage, and control-message volume. The mobile population now
// streams out of the shared trace-shard cache (the same fixture every
// replay figure uses, so the run record carries trace.reuse), and a
// second phase drives the same sessions through the lina::des sharded
// packet engine, cross-checking its delivered-packet digest against the
// serial reference — a digest mismatch fails the bench (exit 1). Both
// models' per-variant counts (sim_*: sent, delivered, control messages,
// stretch and outage sample sums; des_*: delivered, fingerprint) are
// gated results (bench/baselines/BENCH_packet_level_threads1.json).
//
// Bench-specific flags (config block only, never results):
//     --des-shards <n>      engine shard count (default 8)
//     --des-window-ms <x>   lookahead override (default 0 = auto)

#include <chrono>
#include <cmath>
#include <iostream>

#include "common.hpp"
#include "lina/des/engine.hpp"
#include "lina/exec/parallel.hpp"
#include "lina/sim/resolver_pool.hpp"
#include "lina/sim/session.hpp"
#include "lina/trace/replay.hpp"
#include "lina/trace/streaming.hpp"

using namespace lina;

namespace {

/// Converts the first hours of a device trace into a sped-up AS-level
/// mobility schedule (1 simulated second per trace hour). The schedule
/// itself comes from the shared trace-replay helper so the streamed
/// session driver (trace::simulate_sessions_streamed) runs the exact same
/// sessions.
sim::SessionConfig session_from_trace(const mobility::DeviceTrace& trace,
                                      topology::AsId correspondent,
                                      double hours) {
  sim::SessionConfig config;
  config.correspondent = correspondent;
  config.duration_ms = hours * 1000.0;
  config.packet_interval_ms = 25.0;
  config.resolver_ttl_ms = 200.0;
  config.schedule = trace::session_schedule_from_trace(trace, hours);
  return config;
}

/// Streams the whole shard set and keeps the `keep` most mobile users
/// (event count descending, user index ascending on ties — fully
/// deterministic), bounded by one batch plus `keep` resident traces.
std::vector<mobility::DeviceTrace> most_mobile_streamed(
    const trace::ShardSet& set, std::size_t keep) {
  struct Ranked {
    std::size_t user;
    mobility::DeviceTrace trace;
  };
  std::vector<Ranked> top;
  trace::DeviceTraceStream stream(set);
  while (!stream.done()) {
    std::vector<mobility::DeviceTrace> batch = stream.next_batch(64);
    if (batch.empty()) break;
    const std::size_t first = stream.next_index() - batch.size();
    for (std::size_t i = 0; i < batch.size(); ++i) {
      top.push_back({first + i, std::move(batch[i])});
    }
    std::sort(top.begin(), top.end(), [](const Ranked& a, const Ranked& b) {
      if (a.trace.events().size() != b.trace.events().size())
        return a.trace.events().size() > b.trace.events().size();
      return a.user < b.user;
    });
    if (top.size() > keep)
      top.erase(top.begin() + static_cast<std::ptrdiff_t>(keep), top.end());
  }
  std::vector<mobility::DeviceTrace> traces;
  traces.reserve(top.size());
  for (Ranked& r : top) traces.push_back(std::move(r.trace));
  return traces;
}

}  // namespace

int main(int argc, char** argv) {
  std::string shards_flag = "8";
  std::string window_flag = "0";
  bench::Harness harness(argc, argv, "packet_level_validation",
                         {{"--des-shards", &shards_flag, nullptr},
                          {"--des-window-ms", &window_flag, nullptr}});

  // Fail fast on a bad engine configuration, before any measured phase —
  // the same contract as the harness's output-path probes (exit code 2).
  const std::size_t des_shards =
      bench::parse_unsigned(shards_flag).value_or(0);
  if (des_shards == 0) {
    std::cerr << "packet_level_validation: bad --des-shards value '"
              << shards_flag << "' (want a positive integer)\n";
    std::exit(2);
  }
  double des_window_ms = 0.0;
  try {
    des_window_ms = std::stod(window_flag);
  } catch (const std::exception&) {
    std::cerr << "packet_level_validation: bad --des-window-ms value '"
              << window_flag << "' (want a non-negative number)\n";
    std::exit(2);
  }
  if (!(des_window_ms >= 0.0) || !std::isfinite(des_window_ms)) {
    std::cerr << "packet_level_validation: --des-window-ms must be a "
                 "finite non-negative number (0 = auto lookahead)\n";
    std::exit(2);
  }

  bench::print_figure_header(
      "Packet-level validation — forwarding under mobility (extension)",
      "(not a paper figure) indirection should pay stretch but converge "
      "fast; name resolution should pay staleness; name-based routing "
      "should pay convergence-time outages and flooding control cost but "
      "no steady-state stretch.");

  const auto& internet = bench::paper_internet();
  const sim::ForwardingFabric fabric(internet);

  // Aggregate over the 24 most mobile users' first 3 days, streamed out
  // of the shared trace-shard cache (records trace.reuse in the config
  // block) instead of a resident 372-user vector.
  const std::vector<mobility::DeviceTrace> mobile_users =
      most_mobile_streamed(bench::paper_trace_shards(), 24);

  const topology::AsId correspondent = internet.edge_ases()[0];

  const auto replicas = sim::ResolverPool::metro_placement(internet, 8);

  struct Variant {
    std::string label;
    std::string key;  // result-block slug
    sim::SimArchitecture arch;
    std::size_t scope;  // SIZE_MAX = global
    bool replicated;
  };
  const std::vector<Variant> variants{
      {"indirection (home agent)", "indirection",
       sim::SimArchitecture::kIndirection, SIZE_MAX, false},
      {"name resolution (resolver)", "resolution",
       sim::SimArchitecture::kNameResolution, SIZE_MAX, false},
      {"replicated resolution (GNS, 8 replicas)", "gns",
       sim::SimArchitecture::kReplicatedResolution, SIZE_MAX, true},
      {"name-based routing (global flooding)", "namebased",
       sim::SimArchitecture::kNameBased, SIZE_MAX, false},
      {"name-based routing (scope 3 hops, §8 hybrid)", "scoped",
       sim::SimArchitecture::kNameBased, 3, false},
  };

  harness.phase("sessions");
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"architecture", "delivery", "median stretch",
                  "median outage (ms)", "control msgs"});
  for (const Variant& variant : variants) {
    // One session per user, fanned across the pool; the aggregation below
    // runs serially over the user-ordered results, so totals and CDFs
    // match the serial loop exactly at any --threads value.
    const std::vector<sim::SessionStats> sessions =
        exec::parallel_map(mobile_users.size(), [&](std::size_t u) {
          auto config =
              session_from_trace(mobile_users[u], correspondent, 72.0);
          config.update_scope_hops = variant.scope;
          // Fair comparison: the single resolver sits where the GNS
          // pool's first replica sits (not conveniently next to the
          // correspondent).
          config.resolver_as = replicas.front();
          if (variant.replicated) config.resolver_replicas = replicas;
          return sim::simulate_session(fabric, variant.arch, config);
        });
    std::size_t sent = 0, delivered = 0, control = 0;
    stats::EmpiricalCdf stretch, outage;
    // Sums over every session's samples (sessions in user order, samples
    // ascending): a fixed summation order, so they gate bit-for-bit.
    double stretch_sum = 0.0, outage_sum = 0.0;
    for (const sim::SessionStats& result : sessions) {
      sent += result.packets_sent;
      delivered += result.packets_delivered;
      control += result.control_messages;
      if (!result.stretch.empty()) stretch.add(result.stretch.quantile(0.5));
      if (!result.outage_ms.empty()) {
        outage.add(result.outage_ms.quantile(0.5));
      }
      for (const double x : result.stretch.sorted_samples()) stretch_sum += x;
      for (const double x : result.outage_ms.sorted_samples())
        outage_sum += x;
    }
    const std::string prefix = "sim_" + variant.key + "_";
    harness.result(prefix + "sent", static_cast<double>(sent));
    harness.result(prefix + "delivered", static_cast<double>(delivered));
    harness.result(prefix + "control_messages", static_cast<double>(control));
    harness.result(prefix + "stretch_sum", stretch_sum);
    harness.result(prefix + "outage_sum", outage_sum);
    rows.push_back(
        {variant.label,
         stats::pct(static_cast<double>(delivered) /
                        static_cast<double>(sent),
                    2),
         stats::fmt(stretch.quantile(0.5), 3),
         outage.empty() ? "-" : stats::fmt(outage.quantile(0.5), 1),
         std::to_string(control)});
  }
  std::cout << stats::text_table(rows) << "\n";
  std::cout
      << "Reading: the static methodology's cost columns show up as live "
         "behaviour — name-based routing converges fastest but floods "
         "orders of magnitude more control traffic (scoping recovers most "
         "of that at almost no delivery cost), replication cuts the "
         "resolution architecture's staleness relative to one distant "
         "resolver, and indirection trades per-packet stretch for the "
         "cheapest control plane.\n\n";

  // Same sessions through the sharded packet engine: the delivered-packet
  // digest must match the serial run_serial reference bit-for-bit
  // for every variant, at whatever shard count / window the flags chose.
  harness.phase("packet-engine");
  harness.note("des.shards", std::to_string(des_shards));
  harness.note("des.window_ms", stats::fmt(des_window_ms, 3));
  const des::ShardMap map = des::ShardMap::from_topology(internet,
                                                         des_shards);
  std::vector<std::vector<std::string>> engine_rows;
  engine_rows.push_back({"architecture", "events", "events/sec", "windows",
                         "redrain passes", "digest"});
  for (const Variant& variant : variants) {
    des::PacketModel model(fabric, variant.arch);
    for (const mobility::DeviceTrace& trace : mobile_users) {
      des::SessionParams params;
      params.correspondent = correspondent;
      params.schedule = trace::session_schedule_from_trace(trace, 72.0);
      params.duration_ms = 72.0 * 1000.0;
      params.interval_ms = 25.0;
      params.resolver_ttl_ms = 200.0;
      params.resolver_as = replicas.front();
      if (variant.replicated) params.resolver_replicas = replicas;
      params.update_scope_hops = variant.scope;
      model.add_session(params);
    }
    const des::RunStats serial = des::run_serial(model);
    harness.result("des_" + variant.key + "_delivered",
                   static_cast<double>(serial.digest.delivered));
    harness.result("des_" + variant.key + "_fingerprint_lo32",
                   static_cast<double>(serial.digest.fingerprint() &
                                       0xffffffffULL));
    des::EngineConfig engine_config;
    engine_config.shard_count = des_shards;
    engine_config.window_ms = des_window_ms;
    const auto start = std::chrono::steady_clock::now();
    des::ShardedEngine engine(model, map, engine_config);
    const des::RunStats sharded = engine.run();
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    if (sharded.digest != serial.digest || sharded.events != serial.events) {
      std::cerr << "packet_level_validation: sharded engine digest "
                   "mismatch for "
                << variant.label << " (serial fp "
                << serial.digest.fingerprint() << ", sharded fp "
                << sharded.digest.fingerprint()
                << ") — the bit-identity contract is broken\n";
      return 1;
    }
    const double events_per_sec =
        seconds > 0.0 ? static_cast<double>(sharded.events) / seconds : 0.0;
    engine_rows.push_back(
        {variant.label, std::to_string(sharded.events),
         stats::fmt(events_per_sec / 1e6, 2) + "M",
         std::to_string(sharded.windows),
         std::to_string(sharded.redrain_passes),
         "ok (fp " +
             std::to_string(sharded.digest.fingerprint() & 0xffffffffULL) +
             ")"});
    harness.result("des_" + variant.key + "_conservative_events_per_sec",
                   events_per_sec);
  }
  std::cout << stats::heading(
      "Sharded packet engine (lina::des) vs serial reference");
  std::cout << stats::text_table(engine_rows) << "\n";
  std::cout << "Every digest matches the serial run_serial loop "
               "bit-for-bit ("
            << des_shards << " shards, "
            << (des_window_ms > 0.0 ? stats::fmt(des_window_ms, 3) + " ms "
                                          "window"
                                    : std::string("auto lookahead"))
            << ").\n";
  return 0;
}
