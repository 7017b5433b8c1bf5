#pragma once

// Shared harness for the figure/table reproduction benches.
//
// Fixtures: the full-scale synthetic Internet and the paper-scale
// workloads (372 users, 500 + 500 domains, hourly resolution over three
// weeks). Each bench binary is its own process; fixtures are built once
// per process on first use, and every build is timed into the dedicated
// "fixtures" phase so fixture construction never pollutes a measured
// phase.
//
// Telemetry: every bench accepts the shared flags
//     --json <path>    write the machine-readable run record (metrics
//                      registry snapshot + per-phase wall time + headline
//                      results) — the BENCH_*.json perf-trajectory format
//     --csv <path>     flat CSV of the metrics snapshot
//     --trace <path>   JSONL event trace from the obs ring buffer
//     --threads <n>    lina::exec worker count for parallel phases
//                      (default: hardware concurrency; results are
//                      bit-identical at any value — see DESIGN.md §4c)
//     --out-dir <dir>  where generated artifacts (the shared trace-shard
//                      cache) are written; default ./trace-cache
//     --trace-in <dir> replay an existing shard directory instead of
//                      generating (validated; mismatches are fatal)
//     --profile <path> record a lina::prof span profile and write it as
//                      Chrome trace-event JSON (Perfetto-loadable); the
//                      export is parse-back validated before the bench
//                      exits. Enables the obs registry too, so spans
//                      carry counter deltas.
//     --folded <path>  also write the profile as folded-stack text for
//                      flamegraph.pl / speedscope
// An unknown flag, a flag missing its value, or a --threads value that is
// not a non-negative integer exits 2 before anything runs.
// Passing --json/--csv/--trace enables the lina::obs registry for the
// process; without them instrumentation stays disabled (no-op) and the
// bench prints exactly its usual text output. The resolved thread count,
// --out-dir/--trace-in and any bench-specific extra flags are recorded in
// the run record's config block (never in results, so serial and parallel
// runs — and generated vs replayed workloads — stay headline-comparable).
// Every output path (and --out-dir) is probed for writability up front,
// so a typo fails the run immediately instead of after the measured
// phases. Profiling never changes results: headline numbers are
// bit-identical with --profile on or off (tests/prof/bit_identity_test).

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>
#include <utility>
#include <vector>

#include "lina/core/lina.hpp"
#include "lina/trace/replay.hpp"
#include "lina/exec/thread_pool.hpp"
#include "lina/obs/export.hpp"
#include "lina/obs/metrics.hpp"
#include "lina/obs/registry.hpp"
#include "lina/obs/timer.hpp"
#include "lina/obs/trace.hpp"
#include "lina/prof/export.hpp"
#include "lina/prof/prof.hpp"

namespace lina::bench {

/// `text` as a whole unsigned decimal integer; nullopt on an empty
/// string, a sign, whitespace, trailing characters or overflow.
[[nodiscard]] inline std::optional<std::uint64_t> parse_unsigned(
    std::string_view text) {
  std::uint64_t value = 0;
  const char* const end = text.data() + text.size();
  const auto [ptr, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc() || ptr != end) return std::nullopt;
  return value;
}

/// Per-bench run harness: construct first thing in main(), then mark
/// phases with phase("...") and record headline numbers with
/// result("...", v). The destructor closes the last phase and writes
/// whichever outputs were requested on the command line.
class Harness {
 public:
  using Clock = std::chrono::steady_clock;

  /// A bench-specific command-line flag: `--<name> <value>` when `value`
  /// points at a string, a bare `--<name>` switch when `present` points at
  /// a bool. Consumed flags are recorded in the config block.
  struct ExtraFlag {
    std::string_view name;
    std::string* value = nullptr;
    bool* present = nullptr;
  };

  Harness(int argc, char** argv, std::string name,
          const std::vector<ExtraFlag>& extra = {})
      : name_(std::move(name)) {
    for (int i = 1; i < argc; ++i) {
      const std::string_view arg = argv[i];
      const auto take_value = [&]() -> std::string {
        if (i + 1 >= argc) {
          std::cerr << name_ << ": missing value for " << arg << "\n";
          std::exit(2);
        }
        return argv[++i];
      };
      if (arg == "--json") {
        json_path_ = take_value();
      } else if (arg == "--csv") {
        csv_path_ = take_value();
      } else if (arg == "--trace") {
        trace_path_ = take_value();
      } else if (arg == "--threads") {
        const std::string value = take_value();
        const std::optional<std::uint64_t> threads = parse_unsigned(value);
        if (!threads) {
          std::cerr << name_ << ": bad --threads value '" << value
                    << "' (want a non-negative integer; 0 = hardware)\n";
          std::exit(2);
        }
        exec::set_default_threads(*threads);
      } else if (arg == "--out-dir") {
        out_dir_ = take_value();
      } else if (arg == "--trace-in") {
        trace_in_ = take_value();
      } else if (arg == "--profile") {
        profile_path_ = take_value();
      } else if (arg == "--folded") {
        folded_path_ = take_value();
      } else {
        bool consumed = false;
        for (const ExtraFlag& flag : extra) {
          if (arg != flag.name) continue;
          if (flag.value != nullptr) {
            *flag.value = take_value();
            note(std::string(arg.substr(2)), *flag.value);
          } else if (flag.present != nullptr) {
            *flag.present = true;
            note(std::string(arg.substr(2)), "true");
          }
          consumed = true;
          break;
        }
        if (!consumed) {
          std::cerr << name_ << ": unknown argument '" << arg
                    << "' (supported: --json <path> --csv <path> --trace "
                       "<path> --threads <n> --out-dir <dir> --trace-in "
                       "<dir> --profile <path> --folded <path>";
          for (const ExtraFlag& flag : extra) {
            std::cerr << ' ' << flag.name
                      << (flag.value != nullptr ? " <value>" : "");
          }
          std::cerr << ")\n";
          std::exit(2);
        }
      }
    }
    note("threads", std::to_string(exec::default_threads()));
    note("hardware_threads", std::to_string(exec::hardware_threads()));
    if (!out_dir_.empty()) note("out_dir", out_dir_);
    if (!trace_in_.empty()) note("trace_in", trace_in_);
    if (!profile_path_.empty()) note("profile", profile_path_);
    if (!folded_path_.empty()) note("folded", folded_path_);
    // Fail fast on unwritable destinations: a typo'd path should abort
    // here, not after the measured phases have run to completion.
    probe_writable("--json", json_path_);
    probe_writable("--csv", csv_path_);
    probe_writable("--trace", trace_path_);
    probe_writable("--profile", profile_path_);
    probe_writable("--folded", folded_path_);
    probe_out_dir();
    if (wants_output() || wants_profile()) {
      obs::Registry::instance().reset();
      obs::Registry::instance().enable(true);
      obs::TraceRing::instance().clear();
    }
    if (wants_profile()) {
      prof::Profiler::instance().reset();
      prof::Profiler::instance().enable(true);
    }
    active_ = this;
    open_phase("main");
  }

  ~Harness() {
    close_phase();
    if (active_ == this) active_ = nullptr;
    if (!wants_output() && !wants_profile()) return;
    if (wants_profile()) prof::Profiler::instance().enable(false);
    // Self-accounting gauges go in while the registry still records, so
    // the snapshot shows whether the trace ring or span rings truncated.
    obs::metric::trace_ring_events().set(
        static_cast<double>(obs::TraceRing::instance().size()));
    obs::metric::trace_ring_dropped().set(
        static_cast<double>(obs::TraceRing::instance().dropped()));
    if (wants_profile()) {
      const auto threads = prof::Profiler::instance().thread_profiles();
      std::uint64_t recorded = 0;
      std::uint64_t dropped = 0;
      for (const prof::ThreadProfile& t : threads) {
        recorded += t.recorded;
        dropped += t.dropped;
      }
      obs::metric::prof_spans_recorded().set(static_cast<double>(recorded));
      obs::metric::prof_spans_dropped().set(static_cast<double>(dropped));
      obs::metric::prof_threads().set(static_cast<double>(threads.size()));
      // Per-thread drop gauges only for threads that actually truncated,
      // so a clean run's snapshot stays free of N empty entries.
      for (const prof::ThreadProfile& t : threads) {
        if (t.dropped == 0) continue;
        obs::Registry::instance()
            .gauge("lina.prof.thread." + std::to_string(t.thread) +
                   ".dropped")
            .set(static_cast<double>(t.dropped));
      }
    }
    obs::Registry::instance().enable(false);
    try {
      write_outputs();
    } catch (const std::exception& error) {
      std::cerr << name_ << ": telemetry write failed: " << error.what()
                << "\n";
    }
  }

  Harness(const Harness&) = delete;
  Harness& operator=(const Harness&) = delete;

  /// Closes the current phase and opens `name`; per-phase wall time lands
  /// in the JSON record.
  void phase(std::string name) {
    close_phase();
    open_phase(std::move(name));
  }

  /// Free-form config context for the run record (seed knobs, sweep
  /// parameters, ...).
  void note(std::string key, std::string value) {
    info_.config.emplace_back(std::move(key), std::move(value));
  }
  void seed(std::uint64_t seed) { info_.seed = seed; }

  /// A headline scalar result (median stretch, delivery ratio, ...).
  void result(std::string key, double value) {
    info_.results.emplace_back(std::move(key), value);
  }

  [[nodiscard]] static Harness* active() { return active_; }

  /// --out-dir (artifact root, e.g. the shared trace-shard cache); empty
  /// means the default ./trace-cache.
  [[nodiscard]] const std::string& out_dir() const { return out_dir_; }

  /// --trace-in (an existing shard directory to replay); empty means
  /// generate-or-reuse the cache.
  [[nodiscard]] const std::string& trace_in() const { return trace_in_; }

  /// Runs `build` and attributes its wall time to the "fixtures" phase
  /// (and the lina.bench.fixture.build_ms histogram) instead of whatever
  /// phase is open — fixture construction is reported separately from
  /// every measured phase.
  template <typename F>
  static auto timed_fixture(const char* what, F&& build) {
    const Clock::time_point start = Clock::now();
    auto result = build();
    const double ms =
        std::chrono::duration<double, std::milli>(Clock::now() - start)
            .count();
    obs::metric::fixture_build_ms().record(ms);
    if (active_ != nullptr) active_->account_fixture(what, ms);
    return result;
  }

 private:
  [[nodiscard]] bool wants_output() const {
    return !json_path_.empty() || !csv_path_.empty() ||
           !trace_path_.empty();
  }

  [[nodiscard]] bool wants_profile() const {
    return !profile_path_.empty() || !folded_path_.empty();
  }

  /// Aborts the run (exit code 2) if `path` cannot be opened for writing.
  /// Append mode so probing an existing file never truncates it.
  void probe_writable(const char* flag, const std::string& path) {
    if (path.empty()) return;
    std::ofstream probe(path, std::ios::app);
    if (!probe) {
      std::cerr << name_ << ": " << flag << " path '" << path
                << "' is not writable\n";
      std::exit(2);
    }
  }

  void probe_out_dir() {
    if (out_dir_.empty()) return;
    namespace fs = std::filesystem;
    std::error_code ec;
    fs::create_directories(out_dir_, ec);
    const fs::path probe_path =
        fs::path(out_dir_) / ".lina-write-probe";
    std::ofstream probe(probe_path);
    if (ec || !probe) {
      std::cerr << name_ << ": --out-dir '" << out_dir_
                << "' is not writable\n";
      std::exit(2);
    }
    probe.close();
    fs::remove(probe_path, ec);
  }

  /// Phase names are dynamic strings but span names must outlive the
  /// export, so they are interned in a stable deque for the process
  /// lifetime.
  [[nodiscard]] const char* intern_phase_span_name(
      const std::string& phase) {
    interned_names_.push_back("lina.bench.phase." + phase);
    return interned_names_.back().c_str();
  }

  void open_phase(std::string name) {
    phase_name_ = std::move(name);
    if (wants_profile())
      phase_span_.begin(intern_phase_span_name(phase_name_));
    phase_start_ = Clock::now();
    phase_fixture_ms_ = 0.0;
  }

  void close_phase() {
    if (phase_name_.empty()) return;
    const double ms = std::chrono::duration<double, std::milli>(
                          Clock::now() - phase_start_)
                          .count();
    phase_span_.end();
    info_.phases.emplace_back(phase_name_,
                              std::max(0.0, ms - phase_fixture_ms_));
    phase_name_.clear();
  }

  void account_fixture(const char* what, double ms) {
    phase_fixture_ms_ += ms;
    fixtures_ms_ += ms;
    info_.config.emplace_back(std::string("fixture.") + what,
                              stats::fmt(ms, 1) + " ms");
  }

  void write_outputs() {
    info_.name = name_;
    if (fixtures_ms_ > 0.0)
      info_.phases.emplace_back("fixtures", fixtures_ms_);
    const obs::Snapshot snapshot = obs::Registry::instance().snapshot();
    if (!json_path_.empty()) {
      obs::write_text_file(json_path_, obs::export_json(info_, snapshot));
      std::cout << "[obs] wrote " << json_path_ << "\n";
    }
    if (!csv_path_.empty()) {
      obs::write_text_file(csv_path_, obs::export_csv(snapshot));
      std::cout << "[obs] wrote " << csv_path_ << "\n";
    }
    if (!trace_path_.empty()) {
      const auto events = obs::TraceRing::instance().events();
      obs::write_text_file(trace_path_, obs::export_trace_jsonl(events));
      std::cout << "[obs] wrote " << trace_path_ << " (" << events.size()
                << " events, " << obs::TraceRing::instance().dropped()
                << " dropped)\n";
    }
    if (wants_profile()) write_profile();
  }

  void write_profile() {
    const prof::ProfileReport report = prof::collect();
    if (!profile_path_.empty()) {
      const std::string trace = prof::export_chrome_trace(report);
      // Parse-back self-check: an export that chrome://tracing or
      // Perfetto would reject fails the bench loudly, right here.
      const std::size_t validated = prof::validate_chrome_trace(trace);
      obs::write_text_file(profile_path_, trace);
      std::cout << "[prof] wrote " << profile_path_ << " (" << validated
                << " spans across " << report.threads.size()
                << " threads, " << report.dropped_total()
                << " dropped)\n";
    }
    if (!folded_path_.empty()) {
      obs::write_text_file(folded_path_, prof::export_folded(report));
      std::cout << "[prof] wrote " << folded_path_ << "\n";
    }
  }

  inline static Harness* active_ = nullptr;

  std::string name_;
  std::string json_path_;
  std::string csv_path_;
  std::string trace_path_;
  std::string out_dir_;
  std::string trace_in_;
  std::string profile_path_;
  std::string folded_path_;
  obs::RunInfo info_;
  std::string phase_name_;
  prof::Span phase_span_;
  std::deque<std::string> interned_names_;  // stable span-name storage
  Clock::time_point phase_start_{};
  double phase_fixture_ms_ = 0.0;
  double fixtures_ms_ = 0.0;
};

inline const routing::SyntheticInternet& paper_internet() {
  static const routing::SyntheticInternet instance =
      Harness::timed_fixture("internet", [] {
        return routing::SyntheticInternet{routing::SyntheticInternetConfig{}};
      });
  return instance;
}

/// 372 users for 30 days (the paper observed users for months; 30 days of
/// synthetic trace gives stable per-user daily statistics).
inline const std::vector<mobility::DeviceTrace>& paper_device_traces() {
  // Built (and timed) before entering the trace fixture so nested builds
  // never double-count in the "fixtures" phase.
  const auto& internet = paper_internet();
  static const std::vector<mobility::DeviceTrace> traces =
      Harness::timed_fixture("device_traces", [&internet] {
        mobility::DeviceWorkloadConfig config;  // paper-calibrated defaults
        config.days = 30;
        return mobility::DeviceWorkloadGenerator(internet, config)
            .generate();
      });
  return traces;
}

/// The same 372×30 workload as paper_device_traces(), but as a validated
/// shard set on disk: generated once into a cache directory keyed by
/// format version, seed, user count and day count, then reused by every
/// figure that replays it (the reuse decision lands in the config block
/// as trace.reuse=hit|miss|pinned). --trace-in pins an existing shard
/// directory (mismatches are fatal); --out-dir moves the cache root.
/// Streamed replay of this set is bit-identical to the resident vector.
inline const trace::ShardSet& paper_trace_shards() {
  const auto& internet = paper_internet();
  static const trace::ShardSet set = Harness::timed_fixture(
      "trace_shards", [&internet]() -> trace::ShardSet {
        namespace fs = std::filesystem;
        mobility::DeviceWorkloadConfig config;  // paper-calibrated defaults
        config.days = 30;
        Harness* harness = Harness::active();
        const auto note = [&](std::string key, std::string value) {
          if (harness != nullptr)
            harness->note(std::move(key), std::move(value));
        };
        if (harness != nullptr && !harness->trace_in().empty()) {
          trace::ShardSet pinned =
              trace::ShardSet::discover(harness->trace_in());
          note("trace.dir", harness->trace_in());
          note("trace.reuse", "pinned");
          return pinned;
        }
        const fs::path base =
            (harness != nullptr && !harness->out_dir().empty())
                ? fs::path(harness->out_dir())
                : fs::path("trace-cache");
        const fs::path dir =
            base / ("device-v" + std::to_string(trace::kFormatVersion) +
                    "-seed" + std::to_string(config.seed) + "-u" +
                    std::to_string(config.user_count) + "-d" +
                    std::to_string(config.days));
        note("trace.dir", dir.string());
        std::error_code ignored;
        if (fs::exists(dir / trace::shard_file_name(0), ignored)) {
          try {
            trace::ShardSet cached = trace::ShardSet::discover(dir);
            if (cached.seed() == config.seed &&
                cached.user_count() == config.user_count &&
                cached.day_count() == config.days) {
              note("trace.reuse", "hit");
              return cached;
            }
          } catch (const trace::TraceFormatError&) {
            // Damaged or stale cache: wipe the shards and regenerate.
          }
          for (const auto& entry : fs::directory_iterator(dir)) {
            if (entry.path().extension() == ".ltrc")
              fs::remove(entry.path(), ignored);
          }
        }
        note("trace.reuse", "miss");
        const mobility::DeviceWorkloadGenerator generator(internet, config);
        trace::StreamingWorkloadConfig stream_config;
        // Small shards so even the paper-scale set exercises the k-way
        // merge (372 users -> 3 shards).
        stream_config.users_per_shard = 128;
        return trace::StreamingWorkload(generator, stream_config)
            .write_shards(dir);
      });
  return set;
}

/// 500 popular + 500 unpopular domains, 21 days of hourly resolution from
/// 74 vantage points (§7.1).
inline const mobility::ContentCatalog& paper_content_catalog() {
  const auto& internet = paper_internet();
  static const mobility::ContentCatalog catalog =
      Harness::timed_fixture("content_catalog", [&internet] {
        return mobility::ContentWorkloadGenerator(
                   internet, mobility::ContentWorkloadConfig{})
            .generate();
      });
  return catalog;
}

/// Prints a heading plus the paper's reported anchor for a figure.
inline void print_figure_header(const std::string& figure,
                                const std::string& paper_reports) {
  std::cout << stats::heading(figure);
  std::cout << "Paper reports: " << paper_reports << "\n\n";
}

/// Renders per-router update-rate stats as the bar chart the paper plots.
inline void print_router_rates(const std::vector<core::RouterUpdateStats>&
                                   router_stats,
                               const std::string& unit_note) {
  std::vector<std::pair<std::string, double>> rows;
  rows.reserve(router_stats.size());
  for (const core::RouterUpdateStats& s : router_stats) {
    rows.emplace_back(s.router, s.rate() * 100.0);
  }
  std::cout << stats::bar_chart(rows, "%") << "\n" << unit_note << "\n";
}

/// Records each router's event and update counts as gated headline
/// results, keyed "<label>.<router>.events" / "<label>.<router>.updates",
/// so compare_runs.py pins every tally exactly rather than one rate.
inline void record_router_tallies(
    Harness& harness, const std::string& label,
    const std::vector<core::RouterUpdateStats>& router_stats) {
  for (const core::RouterUpdateStats& s : router_stats) {
    const std::string prefix = label + "." + s.router + ".";
    harness.result(prefix + "events", static_cast<double>(s.events));
    harness.result(prefix + "updates", static_cast<double>(s.updates));
  }
}

}  // namespace lina::bench
