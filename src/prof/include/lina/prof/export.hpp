#pragma once

#include <string>
#include <vector>

#include "lina/prof/prof.hpp"

namespace lina::prof {

/// A drained profile: every buffered span and instant plus the
/// per-thread recorded/dropped accounting. Collect with `collect()` after
/// `Profiler::enable(false)` once instrumented work has quiesced.
struct ProfileReport {
  std::vector<SpanRecord> spans;
  std::vector<ThreadProfile> threads;

  [[nodiscard]] std::uint64_t dropped_total() const {
    std::uint64_t total = 0;
    for (const ThreadProfile& t : threads) total += t.dropped;
    return total;
  }
};

/// Drains the process profiler into a report.
[[nodiscard]] ProfileReport collect();

/// Chrome trace-event JSON (the object form: {"traceEvents": [...]}),
/// loadable in Perfetto / chrome://tracing. Every span becomes one
/// complete ("ph":"X") event with microsecond ts/dur; span id, parent id,
/// nesting depth, TSC cycle count and the non-zero attributed counter
/// deltas ride in "args". Every instant becomes one "ph":"i" event with
/// parent, sim_ms and value in "args". Thread-name metadata events and the per-thread
/// drop accounting ("otherData") make truncation visible in the viewer.
[[nodiscard]] std::string export_chrome_trace(const ProfileReport& report);

/// Folded-stack text for flamegraph.pl / speedscope: one
/// "root;child;leaf <self-time-us>" line per distinct stack, aggregated
/// and sorted. Stacks follow parent ids across threads, so worker chunks
/// fold under the region that spawned them. Spans whose parent record
/// was dropped become roots. Instants are skipped.
[[nodiscard]] std::string export_folded(const ProfileReport& report);

/// Parses `json_text` back and checks it is a structurally valid Chrome
/// trace-event document (traceEvents array; every "X" event carries
/// name/cat/ph/ts/dur/pid/tid with dur >= 0, every "i" event the same
/// without dur). Returns the number of span and instant events; throws std::runtime_error naming the first violation. This is
/// the parse-back self-check the bench harness and the prof test suite
/// run on every exported trace.
std::size_t validate_chrome_trace(const std::string& json_text);

/// Distinct layer tokens over the report's span (not instant) names: the second
/// dot-separated component of every "lina.<layer>.<what>" name, sorted.
/// The e2e self-check asserts the instrumented stack covers >= 5 layers.
[[nodiscard]] std::vector<std::string> span_layers(
    const ProfileReport& report);

}  // namespace lina::prof
