// Scale experiment (not a paper figure): the paper's methodology observed
// 372 users; this bench runs the same pipeline out-of-core at millions of
// users. The population is generated straight to trace shards (never
// resident), then replayed twice — per-user traces in batches and the
// global attachment-event stream through the k-way merge cursor — while
// peak RSS stays bounded by one shard plus one batch. Headline results:
// peak RSS, generate/replay records per second, and order-independent
// digests that tie the two replay paths to the same byte stream.

#include <sys/resource.h>

#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <string>

#include "common.hpp"
#include "lina/des/replay.hpp"
#include "lina/snap/store.hpp"
#include "lina/trace/cursor.hpp"
#include "lina/trace/replay.hpp"

using namespace lina;
namespace fs = std::filesystem;

namespace {

/// Linux reports ru_maxrss in KiB.
double peak_rss_mib() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// Resident set size now: VmRSS of /proc/self/status (KiB), 0 where procfs
/// is unavailable.
double resident_mib() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmRSS:") {
      double kib = 0.0;
      status >> kib;
      return kib / 1024.0;
    }
    status.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
  }
  return 0.0;
}

/// FNV-1a style mix; order-sensitive, so equal digests mean equal streams.
std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v;
  return h * 1099511628211ULL;
}

/// `fallback` when the flag was not given; exits 2 on anything but a
/// positive integer, before any measured phase.
std::uint64_t parse_count(const std::string& text, std::uint64_t fallback,
                          const char* what) {
  if (text.empty()) return fallback;
  const std::optional<std::uint64_t> value = bench::parse_unsigned(text);
  if (!value || *value == 0) {
    std::cerr << "scale_million_users: bad " << what << " value '" << text
              << "' (want a positive integer)\n";
    std::exit(2);
  }
  return *value;
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  std::string users_text, days_text, shard_users_text;
  std::string des_shards_text = "16";
  std::string des_window_text = "0";
  bool verify = false;
  bool keep = false;
  bench::Harness harness(
      argc, argv, "scale_million_users",
      {{"--users", &users_text},
       {"--days", &days_text},
       {"--shard-users", &shard_users_text},
       {"--des-shards", &des_shards_text},
       {"--des-window-ms", &des_window_text},
       {"--verify", nullptr, &verify},
       {"--keep", nullptr, &keep}});

  const std::uint64_t users = parse_count(users_text, 1'000'000, "--users");
  const std::uint64_t days = parse_count(days_text, 30, "--days");
  const std::uint64_t shard_users =
      parse_count(shard_users_text, 8192, "--shard-users");

  // Fail fast on a bad packet-engine configuration, before any measured
  // phase — the same contract as the harness's output-path probes.
  const std::size_t des_shards =
      bench::parse_unsigned(des_shards_text).value_or(0);
  if (des_shards == 0) {
    std::cerr << "scale_million_users: bad --des-shards value '"
              << des_shards_text << "' (want a positive integer)\n";
    std::exit(2);
  }
  double des_window_ms = -1.0;
  try {
    des_window_ms = std::stod(des_window_text);
  } catch (const std::exception&) {
  }
  if (!(des_window_ms >= 0.0) || !std::isfinite(des_window_ms)) {
    std::cerr << "scale_million_users: bad --des-window-ms value '"
              << des_window_text
              << "' (want a finite non-negative number; 0 = auto)\n";
    std::exit(2);
  }

  bench::print_figure_header(
      "Scale — out-of-core generate + replay at " + std::to_string(users) +
          " users",
      "(not a paper figure) the 372-user methodology, run out-of-core: "
      "shard generation and bounded-memory replay keep peak RSS flat while "
      "the population scales by four orders of magnitude.");

  const auto& internet = bench::paper_internet();
  mobility::DeviceWorkloadConfig config;  // paper-calibrated defaults
  config.user_count = users;
  config.days = days;
  harness.seed(config.seed);

  trace::ShardSet set = [&] {
    if (!harness.trace_in().empty()) {
      // Replay an existing set (generation cost already paid elsewhere).
      harness.phase("discover");
      return trace::ShardSet::discover(harness.trace_in());
    }
    const fs::path base = harness.out_dir().empty()
                              ? fs::path("trace-cache")
                              : fs::path(harness.out_dir());
    const fs::path dir =
        base / ("scale-u" + std::to_string(users) + "-d" +
                std::to_string(days) + "-s" + std::to_string(shard_users));
    std::error_code ignored;
    if (fs::exists(dir, ignored)) {
      for (const auto& entry : fs::directory_iterator(dir)) {
        if (entry.path().extension() == ".ltrc")
          fs::remove(entry.path(), ignored);
      }
    }
    harness.phase("generate");
    const auto start = std::chrono::steady_clock::now();
    const mobility::DeviceWorkloadGenerator generator(internet, config);
    trace::StreamingWorkloadConfig stream_config;
    stream_config.users_per_shard = shard_users;
    stream_config.verify_after_write = verify;
    trace::ShardSet written =
        trace::StreamingWorkload(generator, stream_config).write_shards(dir);
    const double elapsed = seconds_since(start);
    harness.result("generate_users_per_sec",
                   static_cast<double>(users) / elapsed);
    std::cout << "generate: " << users << " users -> "
              << written.shards().size() << " shards, "
              << written.visit_count() << " visits, "
              << written.event_count() << " events in "
              << stats::fmt(elapsed, 1) << " s\n";
    return written;
  }();

  harness.result("shards", static_cast<double>(set.shards().size()));
  std::uint64_t bytes = 0;
  for (const trace::ShardInfo& shard : set.shards()) {
    std::error_code ignored;
    bytes += fs::file_size(shard.path, ignored);
  }
  harness.result("shard_bytes", static_cast<double>(bytes));
  harness.result("bytes_per_visit",
                 static_cast<double>(bytes) /
                     static_cast<double>(set.visit_count()));
  // The footer CRCs folded in shard order pin every shard byte: an
  // encoder change that moves one byte moves this key.
  std::uint64_t crc_fold = 1469598103934665603ULL;
  for (const trace::ShardInfo& shard : set.shards()) {
    crc_fold = mix(crc_fold, trace::shard_footer_crc(shard.path));
  }
  harness.result("shard_crc_fold", static_cast<double>(crc_fold >> 32));

  // Per-user trace replay: the figs 6-9 consumption pattern, batched.
  harness.phase("replay_traces");
  {
    const auto start = std::chrono::steady_clock::now();
    const std::uint64_t bytes_read_before =
        obs::metric::trace_bytes_read().value();
    trace::DeviceTraceStream stream(set);
    std::uint64_t digest = 1469598103934665603ULL;
    std::uint64_t visits = 0;
    while (!stream.done()) {
      for (const mobility::DeviceTrace& trace :
           stream.next_batch(trace::kDefaultBatchUsers)) {
        for (const mobility::DeviceVisit& visit : trace.visits()) {
          digest = mix(digest, std::bit_cast<std::uint64_t>(visit.start_hour));
          digest = mix(digest, visit.address.value());
          digest = mix(digest, visit.as);
          ++visits;
        }
      }
    }
    const double elapsed = seconds_since(start);
    harness.result("trace_replay_visits_per_sec",
                   static_cast<double>(visits) / elapsed);
    harness.result("trace_replay_digest", static_cast<double>(digest >> 32));
    // Read volume of the per-user replay (the registry records it when
    // --json or --csv is given): the user-block bytes behind each visit.
    harness.result("trace_bytes_read_per_visit",
                   static_cast<double>(
                       obs::metric::trace_bytes_read().value() -
                       bytes_read_before) /
                       static_cast<double>(visits));
    std::cout << "replay_traces: " << visits << " visits in "
              << stats::fmt(elapsed, 1) << " s ("
              << stats::fmt(static_cast<double>(visits) / elapsed / 1e6, 2)
              << " M visits/s), digest " << (digest >> 32) << "\n";
  }

  // Global event replay: the k-way merge across every shard at once.
  harness.phase("replay_events");
  {
    const auto start = std::chrono::steady_clock::now();
    trace::TraceCursor cursor(set);
    std::uint64_t digest = 1469598103934665603ULL;
    trace::TraceEvent event;
    while (cursor.next(event)) {
      digest = mix(digest, std::bit_cast<std::uint64_t>(event.hour));
      digest = mix(digest, event.user);
      digest = mix(digest, event.address.value());
    }
    const double elapsed = seconds_since(start);
    harness.result("event_replay_events_per_sec",
                   static_cast<double>(cursor.events_replayed()) / elapsed);
    harness.result("event_replay_digest", static_cast<double>(digest >> 32));
    std::cout << "replay_events: " << cursor.events_replayed()
              << " events across " << set.shards().size() << " shards in "
              << stats::fmt(elapsed, 1) << " s ("
              << stats::fmt(static_cast<double>(cursor.events_replayed()) /
                                elapsed / 1e6,
                            2)
              << " M events/s), digest " << (digest >> 32) << "\n";
  }

  // FIB replay: stream every visit address through a frozen snapshot of
  // the first vantage router's FIB with batched (prefetched) LPM lookups —
  // the forwarding-plane half of the scale story. The port digest is
  // order-sensitive and architecture-independent, so it pins the lookup
  // results bit-for-bit across runs and thread counts.
  harness.phase("replay_fib");
  // LPM work per lookup over replay_fib + warm_start (the registry
  // records it when --json or --csv is given): gated exactly, so a trie
  // layout change that walks more nodes shows up as drift.
  const std::uint64_t lpm_visits_before =
      obs::metric::ip_trie_lpm_node_visits().value();
  std::uint64_t fib_lookups = 0;
  // Streams every visit address through the given frozen FIB with batched
  // (prefetched) LPM lookups; returns {digest, lookups}. The digest is
  // order-sensitive, so equal digests mean bit-identical lookup results.
  const auto fib_replay = [&set](const routing::FrozenFib& fib) {
    trace::DeviceTraceStream stream(set);
    std::uint64_t digest = 1469598103934665603ULL;
    std::uint64_t lookups = 0;
    std::vector<net::Ipv4Address> addrs;
    std::vector<const routing::FibEntry*> hits;
    while (!stream.done()) {
      addrs.clear();
      for (const mobility::DeviceTrace& trace :
           stream.next_batch(trace::kDefaultBatchUsers)) {
        for (const mobility::DeviceVisit& visit : trace.visits()) {
          addrs.push_back(visit.address);
        }
      }
      hits.resize(addrs.size());
      fib.entries_for_many(addrs, hits);
      for (const routing::FibEntry* entry : hits) {
        digest = mix(digest, entry == nullptr ? 0xffffffffULL : entry->port);
      }
      lookups += addrs.size();
    }
    return std::pair<std::uint64_t, std::uint64_t>{digest, lookups};
  };
  std::uint64_t fib_digest = 0;
  {
    const auto start = std::chrono::steady_clock::now();
    const routing::FrozenFib fib = internet.vantages().front().fib().freeze();
    const auto [digest, lookups] = fib_replay(fib);
    fib_digest = digest;
    fib_lookups += lookups;
    const double elapsed = seconds_since(start);
    harness.result("fib_lookups_per_sec",
                   static_cast<double>(lookups) / elapsed);
    harness.result("fib_replay_digest", static_cast<double>(digest >> 32));
    harness.result("fib_table_bytes",
                   static_cast<double>(
                       internet.vantages().front().fib().table_bytes()));
    std::cout << "replay_fib: " << lookups << " batched LPM lookups in "
              << stats::fmt(elapsed, 1) << " s ("
              << stats::fmt(static_cast<double>(lookups) / elapsed / 1e6, 2)
              << " M lookups/s), digest " << (digest >> 32) << "\n";
  }

  // Warm start: persist the vantage FIB with lina::snap, reload it, and
  // replay the same address stream through the loaded copy. The digest
  // must match replay_fib bit-for-bit — a snapshot that forwards even one
  // packet differently is a failure, not a drift.
  harness.phase("warm_start");
  {
    const fs::path dir =
        (harness.out_dir().empty() ? fs::temp_directory_path()
                                   : fs::path(harness.out_dir())) /
        ("scale-snap-" + std::to_string(users));
    std::error_code ignored;
    fs::remove_all(dir, ignored);
    std::uint64_t snapshot_bytes = 0;
    {
      snap::SnapshotStore store(dir);
      snapshot_bytes =
          store
              .save_ip_fib("vantage-0",
                           internet.vantages().front().fib().freeze())
              .bytes;
    }
    const auto load_start = std::chrono::steady_clock::now();
    const routing::FrozenFib loaded = [&] {
      const snap::SnapshotStore store(dir);
      return store.load_ip_fib("vantage-0");
    }();
    const double load_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - load_start)
            .count();
    const auto [digest, lookups] = fib_replay(loaded);
    if (digest != fib_digest) {
      std::cerr << "warm_start: reloaded FIB digest " << (digest >> 32)
                << " != live digest " << (fib_digest >> 32) << "\n";
      return 1;
    }
    fib_lookups += lookups;
    harness.result("warm_start_digest", static_cast<double>(digest >> 32));
    harness.result("lpm_visits_per_lookup",
                   static_cast<double>(
                       obs::metric::ip_trie_lpm_node_visits().value() -
                       lpm_visits_before) /
                       static_cast<double>(fib_lookups));
    harness.result("snapshot_bytes_per_entry",
                   static_cast<double>(snapshot_bytes) /
                       static_cast<double>(loaded.size()));
    harness.result("snapshot_load_ms", load_ms);
    std::cout << "warm_start: " << snapshot_bytes << " snapshot bytes, "
              << "loaded in " << stats::fmt(load_ms, 2) << " ms, " << lookups
              << " lookups re-verified, digest matches live FIB\n";
    fs::remove_all(dir, ignored);
  }

  // Packet-level replay: every user's first 24 trace hours becomes a CBR
  // session through the lina::des sharded engine, streamed in bounded
  // batches — the packet-forwarding half of the scale story runs
  // out-of-core too, and its digest is invariant across shard count,
  // thread count, and batch size (tests/des), so it gates determinism in
  // the perf trajectory.
  harness.phase("packet");
  {
    // The process peak is set by generate, so peak_rss_mib never sees
    // the replay; its resident growth is reported on its own.
    const double rss_before = resident_mib();
    harness.note("des.shards", std::to_string(des_shards));
    harness.note("des.window_ms", stats::fmt(des_window_ms, 3));
    const sim::ForwardingFabric packet_fabric(internet);
    des::PacketReplayConfig packet_config;
    packet_config.architecture = sim::SimArchitecture::kIndirection;
    packet_config.hours = 24.0;
    packet_config.interval_ms = 1000.0;
    packet_config.correspondent = internet.edge_ases()[0];
    packet_config.batch_users = shard_users;
    packet_config.engine.shard_count = des_shards;
    packet_config.engine.window_ms = des_window_ms;
    const std::uint64_t queries_before =
        obs::metric::fabric_next_hop_queries().value();
    const auto start = std::chrono::steady_clock::now();
    const des::PacketReplayStats packets =
        des::replay_packets_streamed(packet_fabric, set, packet_config);
    const double elapsed = seconds_since(start);
    // Fabric work of the packet phase, gated exactly like the digests.
    harness.result("fabric_next_hop_queries",
                   static_cast<double>(
                       obs::metric::fabric_next_hop_queries().value() -
                       queries_before));
    harness.result("packet_sessions", static_cast<double>(packets.sessions));
    harness.result("packet_sent", static_cast<double>(packets.digest.sent));
    harness.result("packet_delivered",
                   static_cast<double>(packets.digest.delivered));
    harness.result("packet_digest",
                   static_cast<double>(packets.digest.fingerprint() &
                                       0xffffffffULL));
    // Deterministic load-balance / comms / window shape (thread-invariant):
    // gated, so skew, bundling or barrier-count drift shows up as a
    // failure.
    harness.result("des_shard_imbalance",
                   std::round(packets.shard_imbalance * 1000.0) / 1000.0);
    harness.result("des_bundles", static_cast<double>(packets.bundles));
    harness.result("des_windows", static_cast<double>(packets.windows));
    harness.result("des_handoffs", static_cast<double>(packets.handoffs));
    harness.result("des_conservative_events_per_sec",
                   static_cast<double>(packets.events) / elapsed);
    harness.result("des_conservative_redrain_passes",
                   static_cast<double>(packets.redrain_passes));
    std::cout << "packet: " << packets.sessions << " sessions, "
              << packets.events << " events across " << des_shards
              << " shards in " << stats::fmt(elapsed, 1) << " s ("
              << stats::fmt(static_cast<double>(packets.events) / elapsed /
                                1e6,
                            2)
              << " M events/s, imbalance "
              << stats::fmt(packets.shard_imbalance, 2) << ", "
              << packets.bundles << " bundles), " << packets.digest.delivered
              << "/" << packets.digest.sent << " delivered, digest "
              << (packets.digest.fingerprint() & 0xffffffffULL) << "\n";
    const double rss_growth = resident_mib() - rss_before;
    harness.result("packet_rss_growth_mib", rss_growth);
    std::cout << "packet: resident set grew " << stats::fmt(rss_growth, 1)
              << " MiB\n";
  }

  harness.result("peak_rss_mib", peak_rss_mib());
  std::cout << "peak RSS " << stats::fmt(peak_rss_mib(), 1) << " MiB, "
            << stats::fmt(static_cast<double>(bytes) / (1024.0 * 1024.0), 1)
            << " MiB on disk\n";

  if (!keep && harness.trace_in().empty()) {
    harness.phase("cleanup");
    std::error_code ignored;
    for (const trace::ShardInfo& shard : set.shards()) {
      fs::remove(shard.path, ignored);
    }
  }
  return 0;
}
