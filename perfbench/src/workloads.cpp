#include "workloads.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <optional>
#include <sstream>

#include "lina/core/aggregateability.hpp"
#include "lina/core/fib_size.hpp"
#include "lina/core/update_cost.hpp"
#include "lina/des/engine.hpp"
#include "lina/des/model.hpp"
#include "lina/des/replay.hpp"
#include "lina/mobility/content_workload.hpp"
#include "lina/mobility/device_workload.hpp"
#include "lina/routing/synthetic_internet.hpp"
#include "lina/sim/fabric.hpp"
#include "lina/sim/resolver_pool.hpp"
#include "lina/sim/session.hpp"
#include "lina/snap/store.hpp"
#include "lina/trace/cursor.hpp"
#include "lina/trace/replay.hpp"
#include "lina/trace/streaming.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using namespace lina;

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;

/// FNV-1a style mix; order-sensitive, so equal digests mean equal streams.
/// The same fold scale_million_users uses, so the pinned digests match.
std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v;
  return h * 1099511628211ULL;
}

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(steady_ns() - start_ns) / 1e9;
}

/// Equal up to rounding in the last few bits: pinned figure values are
/// ratios and means of deterministic counts.
bool same_value(double a, double b) {
  return std::abs(a - b) <= 1e-12 * std::max(std::abs(a), std::abs(b));
}

std::string show(double got, double want) {
  std::ostringstream out;
  out.precision(17);
  out << "got " << got << ", want " << want;
  return out.str();
}

/// The default synthetic Internet with every vantage FIB built, so no
/// measured run pays a lazy FIB build that later runs skip.
std::unique_ptr<routing::SyntheticInternet> build_internet(Values& setup) {
  const std::int64_t start = steady_ns();
  auto internet = std::make_unique<routing::SyntheticInternet>(
      routing::SyntheticInternetConfig{});
  for (const routing::VantageRouter& vantage : internet->vantages()) {
    vantage.build_fib();
  }
  setup["routing.internet_s"] = seconds_since(start);
  return internet;
}

std::unique_ptr<sim::ForwardingFabric> build_fabric(
    const routing::SyntheticInternet& internet, Values& setup) {
  const std::int64_t start = steady_ns();
  auto fabric = std::make_unique<sim::ForwardingFabric>(internet);
  setup["sim.fabric_build_ms"] = seconds_since(start) * 1e3;
  return fabric;
}

// ---- scale_day -----------------------------------------------------------

/// The ROADMAP's scale reference: 10,000 users x 30 days generated
/// straight to trace shards, replayed three ways, forwarded through a
/// frozen FIB before and after a snapshot round trip, and driven through
/// the sharded packet engine for one trace day.
class ScaleDay final : public Workload {
 public:
  static constexpr std::size_t kUsers = 10'000;
  static constexpr std::size_t kShardUsers = 2048;

  ScaleDay(std::uint64_t seed, Values& setup)
      : seed_(seed), internet_(build_internet(setup)),
        fabric_(build_fabric(*internet_, setup)) {
    config_.user_count = kUsers;
    config_.days = 30;
    config_.seed = seed;
  }

  void run(RunContext& ctx) override {
    Tracer& tracer = ctx.tracer;
    std::uint64_t shard_bytes = 0;
    const trace::ShardSet set = [&] {
      Span span(tracer, "trace.write_shards");
      const mobility::DeviceWorkloadGenerator generator(*internet_, config_);
      trace::StreamingWorkloadConfig stream_config;
      stream_config.users_per_shard = kShardUsers;
      trace::ShardSet written = trace::StreamingWorkload(generator,
                                                         stream_config)
                                    .write_shards(ctx.scratch / "shards");
      for (const trace::ShardInfo& shard : written.shards()) {
        shard_bytes += fs::file_size(shard.path);
      }
      return written;
    }();

    std::uint64_t trace_digest = kFnvOffset;
    std::uint64_t visits = 0;
    {
      Span span(tracer, "trace.next_batch_pass");
      trace::DeviceTraceStream stream(set);
      while (!stream.done()) {
        for (const mobility::DeviceTrace& t :
             stream.next_batch(trace::kDefaultBatchUsers)) {
          for (const mobility::DeviceVisit& visit : t.visits()) {
            trace_digest = mix(trace_digest,
                               std::bit_cast<std::uint64_t>(visit.start_hour));
            trace_digest = mix(trace_digest, visit.address.value());
            trace_digest = mix(trace_digest, visit.as);
            ++visits;
          }
        }
      }
    }

    std::uint64_t event_digest = kFnvOffset;
    std::uint64_t events = 0;
    {
      Span span(tracer, "trace.cursor_pass");
      trace::TraceCursor cursor(set);
      trace::TraceEvent event;
      while (cursor.next(event)) {
        event_digest =
            mix(event_digest, std::bit_cast<std::uint64_t>(event.hour));
        event_digest = mix(event_digest, event.user);
        event_digest = mix(event_digest, event.address.value());
      }
      events = cursor.events_replayed();
    }

    const routing::FrozenFib live = [&] {
      Span span(tracer, "routing.freeze");
      return internet_->vantages().front().fib().freeze();
    }();
    const FibReplay live_replay = fib_replay(set, live, tracer);

    const fs::path snap_dir = ctx.scratch / "snap";
    std::uint64_t snapshot_bytes = 0;
    {
      Span span(tracer, "snap.save_ip_fib");
      snap::SnapshotStore store(snap_dir);
      snapshot_bytes = store.save_ip_fib("vantage-0", live).bytes;
    }
    const routing::FrozenFib loaded = [&] {
      Span span(tracer, "snap.load_ip_fib");
      const snap::SnapshotStore store(snap_dir);
      return store.load_ip_fib("vantage-0");
    }();
    const FibReplay warm_replay = fib_replay(set, loaded, tracer);

    des::PacketReplayStats packets;
    const double rss_before = resident_mib();
    {
      Span span(tracer, "des.replay_packets_streamed");
      des::PacketReplayConfig packet_config;
      packet_config.architecture = sim::SimArchitecture::kIndirection;
      packet_config.hours = 24.0;
      packet_config.interval_ms = 1000.0;
      packet_config.correspondent = internet_->edge_ases()[0];
      packet_config.batch_users = kShardUsers;
      packet_config.engine.shard_count = 16;
      packet_config.engine.sync = des::SyncMode::kConservative;
      packets = des::replay_packets_streamed(*fabric_, set, packet_config);
    }
    const double rss_growth = peak_rss_mib() - rss_before;

    {
      Span span(tracer, "check.outputs");
      Checks& checks = ctx.checks;
      checks.expect("scale_day.visits", visits == set.visit_count(),
                    show(static_cast<double>(visits),
                         static_cast<double>(set.visit_count())));
      checks.expect("scale_day.events", events == set.event_count(),
                    show(static_cast<double>(events),
                         static_cast<double>(set.event_count())));
      checks.expect("scale_day.lookups", live_replay.lookups == visits &&
                                             warm_replay.lookups == visits,
                    "one LPM lookup per visit in both FIB replays");
      checks.expect("scale_day.warm_start_digest",
                    warm_replay.digest == live_replay.digest,
                    "reloaded FIB forwards differently from the live FIB");
      checks.expect("scale_day.packet_sessions", packets.sessions == kUsers,
                    show(static_cast<double>(packets.sessions), kUsers));
      if (seed_ == kPinnedSeed) {
        pin(checks, "scale_day.trace_digest", trace_digest >> 32,
            1396405090ULL);
        pin(checks, "scale_day.event_digest", event_digest >> 32,
            913390912ULL);
        pin(checks, "scale_day.fib_digest", live_replay.digest >> 32,
            4236213778ULL);
        pin(checks, "scale_day.packet_digest",
            packets.digest.fingerprint() & 0xffffffffULL, 2875544069ULL);
      }
    }

    Values& c = ctx.counts;
    c["work.users"] = kUsers;
    c["work.visits"] = static_cast<double>(visits);
    c["work.events"] = static_cast<double>(events + packets.events);
    c["work.lookups"] =
        static_cast<double>(live_replay.lookups + warm_replay.lookups);
    c["work.sessions"] = static_cast<double>(packets.sessions);
    c["trace.visits"] = static_cast<double>(visits);
    c["trace.events"] = static_cast<double>(events);
    c["trace.bytes_per_visit"] =
        static_cast<double>(shard_bytes) / static_cast<double>(visits);
    c["routing.lookups"] =
        static_cast<double>(live_replay.lookups + warm_replay.lookups);
    c["snap.bytes_per_entry"] = static_cast<double>(snapshot_bytes) /
                                static_cast<double>(loaded.size());
    c["des.events"] = static_cast<double>(packets.events);
    c["des.windows"] = static_cast<double>(packets.windows);
    c["des.handoffs"] = static_cast<double>(packets.handoffs);
    c["des.bundles"] = static_cast<double>(packets.bundles);
    c["des.shard_imbalance"] = packets.shard_imbalance;
    c["des.rss_growth_mib"] = rss_growth;
  }

 private:
  struct FibReplay {
    std::uint64_t digest = kFnvOffset;
    std::uint64_t lookups = 0;
  };

  static void pin(Checks& checks, const std::string& name, std::uint64_t got,
                  std::uint64_t want) {
    checks.expect(name, got == want,
                  "got " + std::to_string(got) + ", want " +
                      std::to_string(want));
  }

  /// Streams every visit address through `fib` with batched LPM lookups;
  /// the port digest is order-sensitive, so equal digests mean
  /// bit-identical lookup results.
  static FibReplay fib_replay(const trace::ShardSet& set,
                              const routing::FrozenFib& fib, Tracer& tracer) {
    Span span(tracer, "routing.fib_replay");
    FibReplay result;
    trace::DeviceTraceStream stream(set);
    std::vector<net::Ipv4Address> addrs;
    std::vector<const routing::FibEntry*> hits;
    while (!stream.done()) {
      addrs.clear();
      {
        Span read(tracer, "trace.next_batch");
        for (const mobility::DeviceTrace& t :
             stream.next_batch(trace::kDefaultBatchUsers)) {
          for (const mobility::DeviceVisit& visit : t.visits()) {
            addrs.push_back(visit.address);
          }
        }
      }
      Span lookup(tracer, "routing.lookup_many");
      hits.resize(addrs.size());
      fib.entries_for_many(addrs, hits);
      for (const routing::FibEntry* entry : hits) {
        result.digest =
            mix(result.digest, entry == nullptr ? 0xffffffffULL : entry->port);
      }
      result.lookups += addrs.size();
    }
    return result;
  }

  std::uint64_t seed_;
  mobility::DeviceWorkloadConfig config_;
  std::unique_ptr<routing::SyntheticInternet> internet_;
  std::unique_ptr<sim::ForwardingFabric> fabric_;
};

// ---- paper_methodology ---------------------------------------------------

/// The paper's static study: device update cost (fig 8 and its three
/// sensitivity analyses), displaced entries (table size), content update
/// cost (fig 11b) and aggregateability (fig 12).
class PaperMethodology final : public Workload {
 public:
  /// fig 8 sensitivity 3's independent workload seed at the pinned seed.
  static constexpr std::uint64_t kAltSeed = 20140331;

  PaperMethodology(std::uint64_t seed, Values& setup)
      : seed_(seed), internet_(build_internet(setup)) {
    // The alternate workload's seed moves with --seed; unsigned
    // wrap-around keeps the offset well defined for any seed.
    const std::uint64_t offset = seed - kPinnedSeed;
    std::int64_t start = steady_ns();
    mobility::DeviceWorkloadConfig base;
    base.days = 30;
    base.seed = seed;
    traces_ = mobility::DeviceWorkloadGenerator(*internet_, base).generate();
    mobility::DeviceWorkloadConfig alt;
    alt.seed = kAltSeed + offset;
    alt.user_count = 372;
    alt.days = 14;
    alt.median_daily_transitions = 4.2;
    alt_traces_ =
        mobility::DeviceWorkloadGenerator(*internet_, alt).generate();
    setup["mobility.device_generate_s"] = seconds_since(start);
    setup["mobility.users"] =
        static_cast<double>(traces_.size() + alt_traces_.size());
    // The content catalog keeps its paper-calibrated seed at every --seed:
    // its size is heavy-tailed, so a seeded catalog would change the
    // content work by up to 20% from run to run and drown the timings.
    start = steady_ns();
    catalog_ = mobility::ContentWorkloadGenerator(
                   *internet_, mobility::ContentWorkloadConfig{})
                   .generate();
    setup["mobility.catalog_generate_s"] = seconds_since(start);
  }

  void run(RunContext& ctx) override {
    Tracer& tracer = ctx.tracer;
    const auto vantages = internet_->vantages();
    const std::size_t days = traces_.front().day_count();

    std::optional<core::DeviceUpdateCostEvaluator> evaluator;
    std::vector<core::RouterUpdateStats> base;
    {
      Span span(tracer, "core.device_update");
      evaluator.emplace(vantages);
      base = evaluator->evaluate(traces_);
    }
    std::vector<std::vector<core::RouterUpdateStats>> per_day(days);
    for (std::size_t day = 0; day < days; ++day) {
      Span span(tracer, "core.evaluate_day");
      per_day[day] = evaluator->evaluate_day(traces_, day);
    }

    std::vector<routing::VantageRouter> ripe;
    {
      Span span(tracer, "routing.build_vantages");
      ripe = internet_->build_vantages(routing::ripe_vantage_specs());
      for (const routing::VantageRouter& vantage : ripe) vantage.build_fib();
    }
    std::vector<core::RouterUpdateStats> ripe_stats;
    {
      Span span(tracer, "core.device_update");
      const core::DeviceUpdateCostEvaluator ripe_evaluator(ripe);
      ripe_stats = ripe_evaluator.evaluate(traces_);
    }
    std::vector<core::RouterUpdateStats> alt_stats;
    {
      Span span(tracer, "core.device_update");
      alt_stats = evaluator->evaluate(alt_traces_);
    }

    std::vector<core::DisplacedEntryTimeline> timelines;
    {
      Span span(tracer, "core.displaced_entries");
      timelines = core::evaluate_displaced_entries(vantages, traces_, 1.0);
    }

    std::optional<core::ContentUpdateCostEvaluator> content;
    std::vector<core::RouterUpdateStats> flooding, best_port;
    {
      Span span(tracer, "core.content_update");
      content.emplace(vantages);
      flooding = content->evaluate(
          catalog_.popular, strategy::StrategyKind::kControlledFlooding);
    }
    {
      Span span(tracer, "core.content_update");
      best_port = content->evaluate(catalog_.popular,
                                    strategy::StrategyKind::kBestPort);
    }

    std::vector<core::AggregateabilityResult> popular, unpopular;
    {
      Span span(tracer, "core.aggregateability");
      popular = core::evaluate_aggregateability(vantages, catalog_.popular);
    }
    {
      Span span(tracer, "core.aggregateability");
      unpopular = core::evaluate_aggregateability(vantages, catalog_.unpopular);
    }

    {
      Span span(tracer, "check.outputs");
      check(ctx.checks, base, per_day, {&base, &ripe_stats, &alt_stats,
                                        &flooding, &best_port},
            timelines, popular, unpopular);
    }

    const auto router_events = [](const auto& stats) {
      double total = 0.0;
      for (const core::RouterUpdateStats& s : stats) total += s.events;
      return total;
    };
    Values& c = ctx.counts;
    c["work.users"] = static_cast<double>(traces_.size() + alt_traces_.size());
    c["work.events"] = static_cast<double>(base.front().events +
                                           alt_stats.front().events +
                                           flooding.front().events);
    c["core.router_events"] = router_events(base) +
                              router_events(ripe_stats) +
                              router_events(alt_stats);
    c["core.content_router_events"] =
        router_events(flooding) + router_events(best_port);
    c["routing.ripe_vantages"] = static_cast<double>(ripe.size());
  }

 private:
  void check(Checks& checks, const std::vector<core::RouterUpdateStats>& base,
             const std::vector<std::vector<core::RouterUpdateStats>>& per_day,
             const std::vector<const std::vector<core::RouterUpdateStats>*>&
                 all_rates,
             const std::vector<core::DisplacedEntryTimeline>& timelines,
             const std::vector<core::AggregateabilityResult>& popular,
             const std::vector<core::AggregateabilityResult>& unpopular)
      const {
    // Every day's events partition the whole workload's events.
    bool days_partition = true;
    for (std::size_t r = 0; r < base.size(); ++r) {
      std::size_t events = 0;
      for (const auto& day : per_day) events += day[r].events;
      days_partition = days_partition && events == base[r].events;
    }
    checks.expect("paper.day_events_partition", days_partition,
                  "per-day event counts do not add up to the total");
    bool rates_ok = true;
    for (const auto* stats : all_rates) {
      for (const core::RouterUpdateStats& s : *stats) {
        rates_ok = rates_ok && s.events > 0 && s.updates <= s.events;
      }
    }
    checks.expect("paper.update_rates", rates_ok,
                  "an update count exceeds its event count");
    bool compressed_ok = true;
    for (const auto* results : {&popular, &unpopular}) {
      for (const core::AggregateabilityResult& r : *results) {
        compressed_ok = compressed_ok && r.lpm_entries > 0 &&
                        r.lpm_entries <= r.complete_entries;
      }
    }
    checks.expect("paper.aggregateability", compressed_ok,
                  "an LPM-compressed table is empty or larger than complete");
    double mean_fraction = 0.0;
    double peak_fraction = 0.0;
    bool fractions_ok = true;
    for (const core::DisplacedEntryTimeline& t : timelines) {
      fractions_ok = fractions_ok && t.mean_fraction >= 0.0 &&
                     t.mean_fraction <= 1.0 && t.peak <= t.device_count;
      mean_fraction += t.mean_fraction;
      peak_fraction =
          std::max(peak_fraction, static_cast<double>(t.peak) /
                                      static_cast<double>(t.device_count));
    }
    mean_fraction /= static_cast<double>(timelines.size());
    checks.expect("paper.displaced_fractions", fractions_ok,
                  "a displaced-entry fraction lies outside [0, 1]");
    const auto pin = [&](const std::string& name, double got, double want) {
      checks.expect(name, same_value(got, want), show(got, want));
    };
    // The catalog does not depend on the seed, so neither does fig 12.
    double lo = popular.front().ratio();
    double hi = lo;
    for (const core::AggregateabilityResult& r : popular) {
      lo = std::min(lo, r.ratio());
      hi = std::max(hi, r.ratio());
    }
    pin("paper.fig12_aggregateability_min", lo, 2.813930593157765);
    pin("paper.fig12_aggregateability_max", hi, 12.563736263736264);
    if (seed_ != kPinnedSeed) return;

    std::vector<double> rates;
    for (const core::RouterUpdateStats& s : base) rates.push_back(s.rate());
    std::sort(rates.begin(), rates.end());
    pin("paper.fig8_max_update_rate", rates.back(), 0.20614787734089382);
    pin("paper.fig8_median_update_rate", rates[rates.size() / 2],
        0.09811236290382751);

    pin("paper.mean_displaced_fraction", mean_fraction, 0.08922117682198327);
    pin("paper.peak_displaced_fraction", peak_fraction, 0.28763440860215056);
  }

  std::uint64_t seed_;
  std::unique_ptr<routing::SyntheticInternet> internet_;
  std::vector<mobility::DeviceTrace> traces_;
  std::vector<mobility::DeviceTrace> alt_traces_;
  mobility::ContentCatalog catalog_;
};

// ---- session_mix ---------------------------------------------------------

/// Dense per-session packet traffic: the 24 most mobile users, 72 trace
/// hours each at 25 ms CBR, through sim::simulate_session (seven arms,
/// two with the correspondent mapping cache) and through the DES, serial
/// and sharded (five variants).
class SessionMix final : public Workload {
 public:
  static constexpr std::size_t kUsers = 24;
  static constexpr double kHours = 72.0;

  SessionMix(std::uint64_t seed, Values& setup)
      : seed_(seed), internet_(build_internet(setup)),
        fabric_(build_fabric(*internet_, setup)),
        replicas_(sim::ResolverPool::metro_placement(*internet_, 8)),
        correspondent_(internet_->edge_ases()[0]),
        shard_map_(des::ShardMap::from_topology(*internet_, 8)) {
    const std::int64_t start = steady_ns();
    mobility::DeviceWorkloadConfig config;
    config.days = 30;
    config.seed = seed;
    const std::vector<mobility::DeviceTrace> traces =
        mobility::DeviceWorkloadGenerator(*internet_, config).generate();
    setup["mobility.device_generate_s"] = seconds_since(start);
    setup["mobility.users"] = static_cast<double>(traces.size());
    // Most mobile first (event count descending, user index ascending on
    // ties), as packet_level_validation ranks its users.
    std::vector<std::pair<std::size_t, std::size_t>> ranked;
    for (std::size_t u = 0; u < traces.size(); ++u) {
      ranked.emplace_back(traces[u].events().size(), u);
    }
    std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
      return a.first != b.first ? a.first > b.first : a.second < b.second;
    });
    for (std::size_t i = 0; i < kUsers; ++i) {
      schedules_.push_back(trace::session_schedule_from_trace(
          traces[ranked[i].second], kHours));
    }
  }

  void run(RunContext& ctx) override {
    Tracer& tracer = ctx.tracer;
    Values& c = ctx.counts;
    struct Arm {
      const char* span;
      sim::SimArchitecture arch;
      std::size_t scope;
      bool replicated;
      bool cached;
    };
    constexpr auto kAll = SIZE_MAX;
    const Arm arms[] = {
        {"sim.session", sim::SimArchitecture::kIndirection, kAll, false,
         false},
        {"sim.session", sim::SimArchitecture::kNameResolution, kAll, false,
         false},
        {"sim.session", sim::SimArchitecture::kReplicatedResolution, kAll,
         true, false},
        {"sim.session", sim::SimArchitecture::kNameBased, kAll, false, false},
        {"sim.session", sim::SimArchitecture::kNameBased, 3, false, false},
        {"cache.session", sim::SimArchitecture::kIndirection, kAll, false,
         true},
        {"cache.session", sim::SimArchitecture::kNameResolution, kAll, false,
         true},
    };

    std::uint64_t sent = 0, delivered = 0, control = 0, sessions = 0;
    bool sessions_ok = true;
    cache::CacheStats cache_stats;
    for (const Arm& arm : arms) {
      for (const std::vector<sim::MobilityStep>& schedule : schedules_) {
        Span span(tracer, arm.span);
        sim::SessionConfig config;
        config.correspondent = correspondent_;
        config.schedule = schedule;
        config.duration_ms = kHours * 1000.0;
        config.packet_interval_ms = 25.0;
        config.resolver_ttl_ms = 200.0;
        config.update_scope_hops = arm.scope;
        config.resolver_as = replicas_.front();
        if (arm.replicated) config.resolver_replicas = replicas_;
        if (arm.cached) {
          config.mapping_cache.policy = cache::Policy::kTtlLru;
          config.mapping_cache.capacity = 256;
          config.mapping_cache.ttl_ms = 2000.0;
        }
        const sim::SessionStats stats =
            sim::simulate_session(*fabric_, arm.arch, config);
        sessions_ok = sessions_ok && stats.packets_sent > 0 &&
                      stats.packets_delivered <= stats.packets_sent;
        if (arm.cached) {
          sessions_ok = sessions_ok && stats.mapping_cache.probes() > 0;
          cache_stats.hits += stats.mapping_cache.hits;
          cache_stats.misses += stats.mapping_cache.misses;
          cache_stats.invalidations += stats.mapping_cache.invalidations;
        }
        sent += stats.packets_sent;
        delivered += stats.packets_delivered;
        control += stats.control_messages;
        ++sessions;
      }
    }

    struct Pinned {
      std::uint64_t delivered;
      std::uint64_t fingerprint_lo32;
    };
    // packet_level_validation's committed DES results at the pinned seed.
    constexpr Pinned kPinned[] = {{66570, 283718255},
                                  {54253, 2077285918},
                                  {52940, 854224874},
                                  {68693, 1853515403},
                                  {68255, 1500169775}};
    const char* const kVariants[] = {"indirection", "resolution", "gns",
                                     "namebased", "scoped"};
    des::RunStats totals;
    double imbalance = 0.0;
    const double rss_before = resident_mib();
    for (std::size_t v = 0; v < 5; ++v) {
      const Arm& arm = arms[v];
      std::optional<des::PacketModel> model;
      {
        Span span(tracer, "des.model_build");
        model.emplace(*fabric_, arm.arch);
        for (const std::vector<sim::MobilityStep>& schedule : schedules_) {
          des::SessionParams params;
          params.correspondent = correspondent_;
          params.schedule = schedule;
          params.duration_ms = kHours * 1000.0;
          params.interval_ms = 25.0;
          params.resolver_ttl_ms = 200.0;
          params.resolver_as = replicas_.front();
          if (arm.replicated) params.resolver_replicas = replicas_;
          params.update_scope_hops = arm.scope;
          model->add_session(params);
        }
      }
      des::RunStats serial;
      {
        Span span(tracer, "des.run_serial");
        serial = des::run_serial(*model);
      }
      des::RunStats sharded;
      {
        Span span(tracer, "des.engine_run");
        des::EngineConfig config;
        config.shard_count = 8;
        config.sync = des::SyncMode::kConservative;
        des::ShardedEngine engine(*model, shard_map_, config);
        sharded = engine.run();
      }
      Span span(tracer, "check.outputs");
      const std::string name = std::string("session_mix.des_") + kVariants[v];
      ctx.checks.expect(name + "_identity",
                        sharded.digest == serial.digest &&
                            sharded.events == serial.events,
                        "sharded digest or event count differs from "
                        "run_serial");
      if (seed_ == kPinnedSeed) {
        const std::uint64_t fp = serial.digest.fingerprint() & 0xffffffffULL;
        ctx.checks.expect(
            name + "_pinned",
            serial.digest.delivered == kPinned[v].delivered &&
                fp == kPinned[v].fingerprint_lo32,
            "delivered " + std::to_string(serial.digest.delivered) +
                " fp " + std::to_string(fp) + ", want " +
                std::to_string(kPinned[v].delivered) + " fp " +
                std::to_string(kPinned[v].fingerprint_lo32));
      }
      totals.events += sharded.events;
      totals.windows += sharded.windows;
      totals.handoffs += sharded.handoffs;
      totals.bundles += sharded.bundles;
      imbalance += sharded.shard_imbalance / 5.0;
    }
    const double rss_growth = peak_rss_mib() - rss_before;
    {
      Span span(tracer, "check.outputs");
      ctx.checks.expect("session_mix.sessions", sessions_ok,
                        "a session sent nothing, delivered more than it "
                        "sent, or a cache arm never probed its cache");
    }

    c["work.users"] = kUsers;
    c["work.sessions"] = static_cast<double>(sessions);
    c["work.events"] = static_cast<double>(2 * totals.events);
    c["sim.packets_sent"] = static_cast<double>(sent);
    c["sim.packets_delivered"] = static_cast<double>(delivered);
    c["sim.control_messages"] = static_cast<double>(control);
    c["cache.hit_ratio"] = cache_stats.hit_rate();
    c["cache.invalidations"] = static_cast<double>(cache_stats.invalidations);
    c["des.events"] = static_cast<double>(totals.events);
    c["des.windows"] = static_cast<double>(totals.windows);
    c["des.handoffs"] = static_cast<double>(totals.handoffs);
    c["des.bundles"] = static_cast<double>(totals.bundles);
    c["des.shard_imbalance"] = imbalance;
    c["des.rss_growth_mib"] = rss_growth;
  }

 private:
  std::uint64_t seed_;
  std::unique_ptr<routing::SyntheticInternet> internet_;
  std::unique_ptr<sim::ForwardingFabric> fabric_;
  std::vector<topology::AsId> replicas_;
  topology::AsId correspondent_;
  des::ShardMap shard_map_;
  std::vector<std::vector<sim::MobilityStep>> schedules_;
};

}  // namespace

void Checks::expect(const std::string& name, bool ok,
                    const std::string& detail) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  failures_.push_back(name + ": " + detail);
}

std::unique_ptr<Workload> set_up(const std::string& name, std::uint64_t seed,
                                 Values& setup) {
  if (name == "scale_day") return std::make_unique<ScaleDay>(seed, setup);
  if (name == "paper_methodology") {
    return std::make_unique<PaperMethodology>(seed, setup);
  }
  if (name == "session_mix") return std::make_unique<SessionMix>(seed, setup);
  return nullptr;
}

}  // namespace perfbench
