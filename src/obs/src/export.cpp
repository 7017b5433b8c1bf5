#include "lina/obs/export.hpp"

#include <fstream>
#include <sstream>

namespace lina::obs {

namespace {

constexpr int kSchemaVersion = 1;

Json histogram_to_json(const HistogramSnapshot& h) {
  Json out = Json::object();
  out["count"] = Json(h.count);
  out["sum"] = Json(h.sum);
  out["min"] = Json(h.min);
  out["max"] = Json(h.max);
  out["mean"] = Json(h.mean());
  out["p50"] = Json(h.quantile(0.5));
  out["p90"] = Json(h.quantile(0.9));
  out["p99"] = Json(h.quantile(0.99));
  Json bounds = Json::array();
  for (const double b : h.upper_bounds) bounds.push_back(Json(b));
  out["upper_bounds"] = std::move(bounds);
  Json buckets = Json::array();
  for (const std::uint64_t b : h.buckets) buckets.push_back(Json(b));
  out["buckets"] = std::move(buckets);
  return out;
}

HistogramSnapshot histogram_from_json(const Json& j) {
  HistogramSnapshot h;
  h.count = static_cast<std::uint64_t>(j.at("count").as_number());
  h.sum = j.at("sum").as_number();
  h.min = j.at("min").as_number();
  h.max = j.at("max").as_number();
  for (const Json& b : j.at("upper_bounds").items())
    h.upper_bounds.push_back(b.as_number());
  for (const Json& b : j.at("buckets").items())
    h.buckets.push_back(static_cast<std::uint64_t>(b.as_number()));
  if (h.buckets.size() != h.upper_bounds.size() + 1)
    throw std::runtime_error(
        "parse_snapshot: bucket/bound count mismatch");
  std::uint64_t total = 0;
  for (const std::uint64_t b : h.buckets) total += b;
  if (total != h.count)
    throw std::runtime_error("parse_snapshot: bucket sum != count");
  return h;
}

}  // namespace

Json snapshot_to_json(const Snapshot& snapshot) {
  Json out = Json::object();
  Json counters = Json::object();
  for (const auto& [name, value] : snapshot.counters)
    counters[name] = Json(value);
  out["counters"] = std::move(counters);
  Json gauges = Json::object();
  for (const auto& [name, value] : snapshot.gauges) {
    Json gauge = Json::object();
    gauge["value"] = Json(value.first);
    gauge["max"] = Json(value.second);
    gauges[name] = std::move(gauge);
  }
  out["gauges"] = std::move(gauges);
  Json histograms = Json::object();
  for (const auto& [name, h] : snapshot.histograms)
    histograms[name] = histogram_to_json(h);
  out["histograms"] = std::move(histograms);
  return out;
}

Snapshot parse_snapshot(const Json& document) {
  // Accept either a bare snapshot object or a full run record (which
  // nests the snapshot under "metrics").
  const Json* metrics = document.find("metrics");
  const Json& root = metrics != nullptr ? *metrics : document;
  Snapshot snapshot;
  for (const auto& [name, value] : root.at("counters").members())
    snapshot.counters.emplace_back(
        name, static_cast<std::uint64_t>(value.as_number()));
  for (const auto& [name, value] : root.at("gauges").members())
    snapshot.gauges.emplace_back(
        name, std::make_pair(value.at("value").as_number(),
                             value.at("max").as_number()));
  for (const auto& [name, value] : root.at("histograms").members())
    snapshot.histograms.emplace_back(name, histogram_from_json(value));
  return snapshot;
}

std::string export_json(const RunInfo& info, const Snapshot& snapshot) {
  Json out = Json::object();
  out["schema_version"] = Json(kSchemaVersion);
  out["name"] = Json(info.name);
  out["seed"] = Json(info.seed);
  Json config = Json::object();
  for (const auto& [key, value] : info.config) config[key] = Json(value);
  out["config"] = std::move(config);
  Json phases = Json::array();
  for (const auto& [phase, wall_ms] : info.phases) {
    Json entry = Json::object();
    entry["phase"] = Json(phase);
    entry["wall_ms"] = Json(wall_ms);
    phases.push_back(std::move(entry));
  }
  out["phases"] = std::move(phases);
  Json results = Json::object();
  for (const auto& [key, value] : info.results) results[key] = Json(value);
  out["results"] = std::move(results);
  out["metrics"] = snapshot_to_json(snapshot);
  return out.dump(2) + "\n";
}

std::string export_csv(const Snapshot& snapshot) {
  std::ostringstream os;
  os << "metric,kind,field,value\n";
  os.precision(17);
  for (const auto& [name, value] : snapshot.counters)
    os << name << ",counter,value," << value << "\n";
  for (const auto& [name, value] : snapshot.gauges) {
    os << name << ",gauge,value," << value.first << "\n";
    os << name << ",gauge,max," << value.second << "\n";
  }
  for (const auto& [name, h] : snapshot.histograms) {
    os << name << ",histogram,count," << h.count << "\n";
    os << name << ",histogram,sum," << h.sum << "\n";
    os << name << ",histogram,min," << h.min << "\n";
    os << name << ",histogram,max," << h.max << "\n";
    os << name << ",histogram,mean," << h.mean() << "\n";
    os << name << ",histogram,p50," << h.quantile(0.5) << "\n";
    os << name << ",histogram,p90," << h.quantile(0.9) << "\n";
    os << name << ",histogram,p99," << h.quantile(0.99) << "\n";
  }
  return os.str();
}

void write_text_file(const std::string& path, const std::string& content) {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file) throw std::runtime_error("obs: cannot open " + path);
  file.write(content.data(),
             static_cast<std::streamsize>(content.size()));
  if (!file) throw std::runtime_error("obs: write failed for " + path);
}

}  // namespace lina::obs
