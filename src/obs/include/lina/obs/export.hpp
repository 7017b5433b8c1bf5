#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "lina/obs/json.hpp"
#include "lina/obs/registry.hpp"

namespace lina::obs {

/// Identity and context of one instrumented run — everything a later
/// analysis needs to interpret the metric values: which binary, which
/// seed, which knobs, and how wall time split across phases. This is the
/// `BENCH_*.json` perf-trajectory record every bench binary emits via the
/// shared `--json` flag.
struct RunInfo {
  std::string name;        // bench/experiment identifier
  std::uint64_t seed = 0;  // dominant RNG seed (0 = unseeded/deterministic)
  std::vector<std::pair<std::string, std::string>> config;
  std::vector<std::pair<std::string, double>> phases;   // (phase, wall ms)
  std::vector<std::pair<std::string, double>> results;  // headline scalars
};

/// The registry snapshot as a JSON object:
///   {"counters": {...}, "gauges": {...}, "histograms": {...}}
/// Histograms carry count/sum/min/max/mean, p50/p90/p99, and the raw
/// bucket vector so downstream tooling can re-derive any quantile.
[[nodiscard]] Json snapshot_to_json(const Snapshot& snapshot);

/// Inverse of snapshot_to_json; throws std::runtime_error on documents
/// that do not conform. `parse_snapshot(Json::parse(export_json(...)))`
/// is the schema self-check: if the emitted file does not load back, the
/// export is malformed.
[[nodiscard]] Snapshot parse_snapshot(const Json& document);

/// The full machine-readable run record (schema_version, run info, and
/// the metrics snapshot), pretty-printed.
[[nodiscard]] std::string export_json(const RunInfo& info,
                                      const Snapshot& snapshot);

/// Flat CSV: metric,kind,field,value — one row per scalar, plus
/// count/sum/min/max/mean/p50/p90/p99 rows per histogram.
[[nodiscard]] std::string export_csv(const Snapshot& snapshot);

/// Writes `content` to `path`; throws std::runtime_error when the file
/// cannot be opened or written.
void write_text_file(const std::string& path, const std::string& content);

}  // namespace lina::obs
