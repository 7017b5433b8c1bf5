#include "lina/mobility/trace_io.hpp"

#include <algorithm>
#include <cmath>
#include <istream>
#include <map>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>

namespace lina::mobility {

namespace {

std::vector<std::string> split_csv_row(const std::string& line) {
  std::vector<std::string> fields;
  std::string field;
  std::istringstream stream(line);
  while (std::getline(stream, field, ',')) fields.push_back(field);
  if (!line.empty() && line.back() == ',') fields.emplace_back();
  return fields;
}

double parse_double(const std::string& text, const char* what) {
  try {
    std::size_t pos = 0;
    const double value = std::stod(text, &pos);
    if (pos != text.size() || !std::isfinite(value))
      throw std::invalid_argument(what);
    return value;
  } catch (const std::exception&) {
    throw std::invalid_argument(std::string("trace_io: bad ") + what +
                                " field: '" + text + "'");
  }
}

std::uint32_t parse_u32(const std::string& text, const char* what) {
  try {
    std::size_t pos = 0;
    const unsigned long value = std::stoul(text, &pos);
    if (pos != text.size() || value > 0xffffffffUL)
      throw std::invalid_argument(what);
    return static_cast<std::uint32_t>(value);
  } catch (const std::exception&) {
    throw std::invalid_argument(std::string("trace_io: bad ") + what +
                                " field: '" + text + "'");
  }
}

}  // namespace

void write_nomadlog_csv(std::ostream& out,
                        std::span<const DeviceTrace> traces) {
  const auto saved_precision = out.precision(12);
  out << "device_id,time_hours,ip_addr,net_type,lat,long\n";
  for (const DeviceTrace& trace : traces) {
    for (const DeviceVisit& visit : trace.visits()) {
      out << trace.user_id() << ',' << visit.start_hour << ','
          << visit.address.to_string() << ','
          << (visit.cellular ? "cellular" : "wifi") << ",,\n";
    }
  }
  out.precision(saved_precision);
}

std::vector<NomadLogRecord> read_nomadlog_csv(std::istream& in) {
  std::vector<NomadLogRecord> records;
  std::string line;
  bool first = true;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (first) {
      first = false;
      if (line.rfind("device_id", 0) == 0) continue;  // header
    }
    const auto fields = split_csv_row(line);
    if (fields.size() < 4)
      throw std::invalid_argument("trace_io: NomadLog row needs >= 4 fields: '" +
                                  line + "'");
    NomadLogRecord record;
    record.device_id = parse_u32(fields[0], "device_id");
    record.time_hours = parse_double(fields[1], "time_hours");
    record.address = net::Ipv4Address::parse(fields[2]);
    if (fields[3] == "cellular") {
      record.cellular = true;
    } else if (fields[3] == "wifi") {
      record.cellular = false;
    } else {
      throw std::invalid_argument("trace_io: bad net_type '" + fields[3] +
                                  "'");
    }
    if (fields.size() >= 6 && !fields[4].empty() && !fields[5].empty()) {
      record.has_location = true;
      record.latitude_deg = parse_double(fields[4], "lat");
      record.longitude_deg = parse_double(fields[5], "long");
    }
    records.push_back(record);
  }
  return records;
}

std::vector<DeviceTrace> traces_from_records(
    std::span<const NomadLogRecord> records, const AddressResolver& resolver,
    double tail_hours) {
  if (tail_hours <= 0.0)
    throw std::invalid_argument("traces_from_records: tail_hours <= 0");

  std::map<std::uint32_t, std::vector<NomadLogRecord>> by_device;
  for (const NomadLogRecord& record : records) {
    by_device[record.device_id].push_back(record);
  }

  std::vector<DeviceTrace> traces;
  for (auto& [device, events] : by_device) {
    std::stable_sort(events.begin(), events.end(),
                     [](const NomadLogRecord& a, const NomadLogRecord& b) {
                       return a.time_hours < b.time_hours;
                     });
    // Resolve addresses; drop unmappable events (paywalled APs etc. never
    // produced usable addresses in the real system either).
    struct Resolved {
      double time;
      net::Ipv4Address address;
      net::Prefix prefix;
      topology::AsId as;
      bool cellular;
    };
    std::vector<Resolved> resolved;
    for (const NomadLogRecord& event : events) {
      try {
        resolved.push_back({event.time_hours, event.address,
                            resolver.prefix_of(event.address),
                            resolver.as_of(event.address), event.cellular});
      } catch (const std::exception&) {
        continue;  // unmappable address
      }
    }
    if (resolved.empty()) continue;

    const double start = resolved.front().time;
    const double span =
        resolved.back().time - start + tail_hours;
    if (span < 24.0) continue;  // under one day of observation (§4)
    const auto day_count = static_cast<std::size_t>(std::ceil(span / 24.0));

    DeviceTrace trace(device, day_count);
    for (std::size_t i = 0; i < resolved.size(); ++i) {
      const double begin = resolved[i].time - start;
      const double end = (i + 1 < resolved.size())
                             ? resolved[i + 1].time - start
                             : span;
      if (end - begin <= 1e-9) continue;  // simultaneous events: keep last
      trace.append({begin, end - begin, resolved[i].address,
                    resolved[i].prefix, resolved[i].as,
                    resolved[i].cellular});
    }
    if (!trace.visits().empty()) traces.push_back(std::move(trace));
  }
  return traces;
}

void write_content_csv(std::ostream& out,
                       std::span<const ContentTrace> traces) {
  const auto saved_precision = out.precision(12);
  out << "name,popular,cdn,day_count,hour,addresses\n";
  for (const ContentTrace& trace : traces) {
    for (const ContentSnapshot& snapshot : trace.snapshots()) {
      out << trace.name().to_dns() << ','
          << (trace.popular() ? 1 : 0) << ','
          << (trace.cdn_backed() ? 1 : 0) << ','
          << trace.day_count() << ',' << snapshot.hour << ',';
      bool first = true;
      for (const net::Ipv4Address addr : snapshot.addresses) {
        if (!first) out << '|';
        out << addr.to_string();
        first = false;
      }
      out << '\n';
    }
  }
  out.precision(saved_precision);
}

std::vector<ContentTrace> read_content_csv(std::istream& in) {
  std::vector<ContentTrace> traces;
  std::map<std::string, std::size_t> index;
  std::string line;
  bool first = true;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (first) {
      first = false;
      if (line.rfind("name,", 0) == 0) continue;  // header
    }
    const auto fields = split_csv_row(line);
    if (fields.size() != 6)
      throw std::invalid_argument("trace_io: content row needs 6 fields: '" +
                                  line + "'");
    const std::string& key = fields[0];
    const auto it = index.find(key);
    std::size_t slot;
    if (it == index.end()) {
      slot = traces.size();
      index[key] = slot;
      traces.emplace_back(names::ContentName::from_dns(key),
                          parse_u32(fields[1], "popular") != 0,
                          parse_u32(fields[2], "cdn") != 0,
                          parse_u32(fields[3], "day_count"));
    } else {
      slot = it->second;
    }
    std::vector<net::Ipv4Address> addresses;
    if (!fields[5].empty()) {
      std::istringstream addr_stream(fields[5]);
      std::string token;
      while (std::getline(addr_stream, token, '|')) {
        addresses.push_back(net::Ipv4Address::parse(token));
      }
    }
    traces[slot].observe(parse_double(fields[4], "hour"), addresses);
  }
  return traces;
}

}  // namespace lina::mobility
