#include "lina/prof/export.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <stdexcept>
#include <string_view>
#include <unordered_map>

#include "lina/obs/json.hpp"

namespace lina::prof {

namespace {

using obs::Json;

double to_us(std::uint64_t ns) { return static_cast<double>(ns) / 1000.0; }

}  // namespace

ProfileReport collect() {
  ProfileReport report;
  report.spans = Profiler::instance().drain();
  report.threads = Profiler::instance().thread_profiles();
  return report;
}

std::string export_chrome_trace(const ProfileReport& report) {
  const auto& counter_names = attributed_counter_names();
  Json events = Json::array();
  // Thread-name metadata first, so viewers label lanes before any span.
  for (const ThreadProfile& t : report.threads) {
    Json meta = Json::object();
    meta["ph"] = Json("M");
    meta["name"] = Json("thread_name");
    meta["pid"] = Json(1);
    meta["tid"] = Json(static_cast<std::uint64_t>(t.thread));
    Json args = Json::object();
    args["name"] = Json(t.thread == 1 ? "lina main"
                                      : "lina worker " +
                                            std::to_string(t.thread - 1));
    meta["args"] = std::move(args);
    events.push_back(std::move(meta));
  }
  for (const SpanRecord& span : report.spans) {
    Json event = Json::object();
    event["ph"] = Json(span.is_instant() ? "i" : "X");
    event["name"] = Json(span.name);
    event["cat"] = Json("lina");
    event["ts"] = Json(to_us(span.begin_ns));
    event["pid"] = Json(1);
    event["tid"] = Json(static_cast<std::uint64_t>(span.thread));
    Json args = Json::object();
    args["parent"] = Json(span.parent);
    if (span.is_instant()) {
      args["sim_ms"] = Json(span.sim_ms);
      args["value"] = Json(span.value);
    } else {
      event["dur"] = Json(to_us(span.end_ns - span.begin_ns));
      args["span"] = Json(span.id);
      args["depth"] = Json(static_cast<std::uint64_t>(span.depth));
      if (span.tsc_end >= span.tsc_begin && span.tsc_end != 0) {
        args["tsc_cycles"] = Json(span.tsc_end - span.tsc_begin);
      }
      for (std::size_t i = 0; i < kAttributedCounters; ++i) {
        if (span.counter_deltas[i] != 0) {
          args[counter_names[i]] = Json(span.counter_deltas[i]);
        }
      }
    }
    event["args"] = std::move(args);
    events.push_back(std::move(event));
  }
  Json out = Json::object();
  out["traceEvents"] = std::move(events);
  out["displayTimeUnit"] = Json("ms");
  Json other = Json::object();
  other["spans"] = Json(static_cast<std::uint64_t>(report.spans.size()));
  other["spans_dropped"] = Json(report.dropped_total());
  Json threads = Json::array();
  for (const ThreadProfile& t : report.threads) {
    Json entry = Json::object();
    entry["tid"] = Json(static_cast<std::uint64_t>(t.thread));
    entry["recorded"] = Json(t.recorded);
    entry["dropped"] = Json(t.dropped);
    threads.push_back(std::move(entry));
  }
  other["threads"] = std::move(threads);
  out["otherData"] = std::move(other);
  return out.dump(1) + "\n";
}

std::string export_folded(const ProfileReport& report) {
  // Inclusive duration per span, minus the inclusive durations of direct
  // children = self time; attribute it to the parent-chain stack.
  // Instants carry no duration and are skipped.
  std::unordered_map<std::uint64_t, const SpanRecord*> by_id;
  by_id.reserve(report.spans.size());
  for (const SpanRecord& span : report.spans) {
    if (!span.is_instant()) by_id.emplace(span.id, &span);
  }

  std::unordered_map<std::uint64_t, std::uint64_t> child_ns;
  for (const SpanRecord& span : report.spans) {
    if (span.parent != 0 && by_id.count(span.parent) != 0) {
      child_ns[span.parent] += span.end_ns - span.begin_ns;
    }
  }

  std::map<std::string, std::uint64_t> folded;  // stack -> self us
  for (const SpanRecord& span : report.spans) {
    if (span.is_instant()) continue;
    const std::uint64_t inclusive = span.end_ns - span.begin_ns;
    const auto children = child_ns.find(span.id);
    const std::uint64_t self_ns =
        children == child_ns.end()
            ? inclusive
            : (inclusive > children->second ? inclusive - children->second
                                            : 0);
    // Walk to the root; a dropped parent record truncates the stack.
    std::vector<const char*> frames;
    frames.push_back(span.name);
    std::uint64_t parent = span.parent;
    while (parent != 0) {
      const auto it = by_id.find(parent);
      if (it == by_id.end()) break;
      frames.push_back(it->second->name);
      parent = it->second->parent;
    }
    std::string stack;
    for (auto it = frames.rbegin(); it != frames.rend(); ++it) {
      if (!stack.empty()) stack += ';';
      stack += *it;
    }
    folded[stack] += (self_ns + 500) / 1000;  // round to us
  }

  std::string out;
  for (const auto& [stack, self_us] : folded) {
    out += stack;
    out += ' ';
    out += std::to_string(self_us);
    out += '\n';
  }
  return out;
}

std::size_t validate_chrome_trace(const std::string& json_text) {
  const Json document = Json::parse(json_text);
  if (!document.is_object())
    throw std::runtime_error("chrome trace: top level is not an object");
  const Json* events = document.find("traceEvents");
  if (events == nullptr || !events->is_array())
    throw std::runtime_error("chrome trace: missing traceEvents array");
  std::size_t records = 0;
  for (const Json& event : events->items()) {
    if (!event.is_object())
      throw std::runtime_error("chrome trace: event is not an object");
    const Json& ph = event.at("ph");
    if (!ph.is_string())
      throw std::runtime_error("chrome trace: event ph is not a string");
    if (ph.as_string() == "M") continue;  // metadata
    const bool instant = ph.as_string() == "i";
    if (!instant && ph.as_string() != "X")
      throw std::runtime_error("chrome trace: unexpected event phase '" +
                               ph.as_string() + "'");
    for (const char* key : {"name", "cat", "ts", "pid", "tid"}) {
      if (event.find(key) == nullptr)
        throw std::runtime_error(std::string("chrome trace: ") +
                                 (instant ? "instant" : "span") +
                                 " event missing '" + key + "'");
    }
    if (!instant && event.find("dur") == nullptr)
      throw std::runtime_error("chrome trace: span event missing 'dur'");
    if (!event.at("name").is_string())
      throw std::runtime_error("chrome trace: event name is not a string");
    const double dur = instant ? 0.0 : event.at("dur").as_number();
    const double ts = event.at("ts").as_number();
    if (!(dur >= 0.0) || !(ts >= 0.0))
      throw std::runtime_error(
          "chrome trace: negative ts/dur on event '" +
          event.at("name").as_string() + "'");
    ++records;
  }
  return records;
}

std::vector<std::string> span_layers(const ProfileReport& report) {
  std::set<std::string> layers;
  for (const SpanRecord& span : report.spans) {
    if (span.is_instant()) continue;
    const std::string_view name(span.name);
    const std::size_t first = name.find('.');
    if (first == std::string_view::npos) continue;
    const std::size_t second = name.find('.', first + 1);
    const std::string_view layer =
        name.substr(first + 1, second == std::string_view::npos
                                   ? std::string_view::npos
                                   : second - first - 1);
    layers.emplace(layer);
  }
  return {layers.begin(), layers.end()};
}

}  // namespace lina::prof
