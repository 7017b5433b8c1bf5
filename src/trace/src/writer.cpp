#include "lina/trace/writer.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>

#include "lina/net/crc32.hpp"
#include "lina/obs/metrics.hpp"

namespace lina::trace {

TraceWriter::TraceWriter(std::filesystem::path file, ShardMeta meta)
    : file_(std::move(file)), meta_(meta), next_user_(meta.first_user) {}

TraceWriter::~TraceWriter() {
  if (!finished_) {
    std::error_code ec;
    std::filesystem::remove(file_, ec);  // never existed unless finish() ran
  }
}

void TraceWriter::append(const mobility::DeviceTrace& trace) {
  if (finished_) {
    throw std::logic_error("TraceWriter::append after finish()");
  }
  if (appended_ == meta_.user_count) {
    throw std::invalid_argument(
        "TraceWriter::append: shard already holds its " +
        std::to_string(meta_.user_count) + " users");
  }
  if (trace.user_id() != next_user_) {
    throw std::invalid_argument(
        "TraceWriter::append: expected user " + std::to_string(next_user_) +
        ", got " + std::to_string(trace.user_id()) +
        " (shards store contiguous ascending user-id ranges)");
  }
  if (trace.day_count() != meta_.day_count) {
    throw std::invalid_argument(
        "TraceWriter::append: trace spans " +
        std::to_string(trace.day_count()) + " days, shard is declared for " +
        std::to_string(meta_.day_count));
  }
  const auto visits = trace.visits();
  if (visits.empty()) {
    throw std::invalid_argument("TraceWriter::append: empty trace for user " +
                                std::to_string(trace.user_id()));
  }

  // Timestamps delta-encode when the trace is exactly contiguous (the
  // generator's accumulation makes it so); otherwise starts are stored
  // verbatim so the round trip stays bit-exact for any legal DeviceTrace.
  bool contiguous = visits.front().start_hour == 0.0;
  for (std::size_t i = 1; contiguous && i < visits.size(); ++i) {
    contiguous = visits[i].start_hour ==
                 visits[i - 1].start_hour + visits[i - 1].duration_hours;
  }

  put_varint(blocks_, trace.user_id());
  put_varint(blocks_, visits.size());
  put_u8(blocks_, contiguous ? 0 : kBlockExplicitStarts);
  put_f64(blocks_, visits.front().start_hour);
  for (const mobility::DeviceVisit& v : visits) {
    put_f64(blocks_, v.duration_hours);
  }
  if (!contiguous) {
    for (const mobility::DeviceVisit& v : visits) {
      put_f64(blocks_, v.start_hour);
    }
  }
  std::uint32_t previous_address = 0;
  for (const mobility::DeviceVisit& v : visits) {
    const std::uint32_t value = v.address.value();
    put_varint(blocks_, zigzag_encode(static_cast<std::int64_t>(value) -
                                      static_cast<std::int64_t>(
                                          previous_address)));
    previous_address = value;
  }
  for (const mobility::DeviceVisit& v : visits) {
    // An announced prefix is its address under the mask, so one length
    // byte reconstructs it. Anything else is outside the format.
    const net::Prefix rebuilt(v.address, v.prefix.length());
    if (rebuilt != v.prefix) {
      throw std::invalid_argument(
          "TraceWriter::append: visit prefix " + v.prefix.to_string() +
          " does not contain its address " + v.address.to_string());
    }
    put_u8(blocks_, static_cast<std::uint8_t>(v.prefix.length()));
  }
  std::int64_t previous_as = 0;
  for (const mobility::DeviceVisit& v : visits) {
    put_varint(blocks_, zigzag_encode(static_cast<std::int64_t>(v.as) -
                                      previous_as));
    previous_as = static_cast<std::int64_t>(v.as);
  }
  for (std::size_t i = 0; i < visits.size(); i += 8) {
    std::uint8_t bits = 0;
    for (std::size_t b = 0; b < 8 && i + b < visits.size(); ++b) {
      if (visits[i + b].cellular) bits |= static_cast<std::uint8_t>(1u << b);
    }
    put_u8(blocks_, bits);
  }

  for (std::size_t i = 0; i < visits.size(); ++i) {
    const mobility::DeviceVisit& v = visits[i];
    events_.push_back(TraceEvent{v.start_hour, trace.user_id(), v.address,
                                 v.prefix, v.as, v.cellular, i == 0});
  }

  visit_count_ += visits.size();
  ++appended_;
  ++next_user_;
}

namespace {

/// Event-section bytes encoded between two writes (and CRC updates).
constexpr std::size_t kEventChunkBytes = 64 * 1024;
/// Largest encoded event: f64 hour, three 5-byte varints, two u8s.
constexpr std::size_t kMaxEventBytes = 25;

/// Sort buckets per trace hour. floor(hour * 64) is monotone in the hour
/// (scaling by a power of two is exact), so bucket order refines to
/// (hour, user) order, and a 56 s bucket holds ~10 events of a 2048-user
/// shard: small enough that the per-bucket sort is an insertion sort.
constexpr std::uint64_t kBucketsPerHour = 64;

/// The bucket of an event hour, clamped into [0, buckets): hours before 0
/// go to the first bucket, hours past the last day to the last one.
std::size_t hour_bucket(double hour, std::size_t buckets) {
  if (!(hour >= 0.0)) return 0;
  const double scaled = std::floor(hour * kBucketsPerHour);
  if (scaled >= static_cast<double>(buckets - 1)) return buckets - 1;
  return static_cast<std::size_t>(scaled);
}

/// Sorts events by event_precedes in time linear in their count for
/// trace-shaped input: a counting pass scatters them into hour buckets,
/// then each bucket is sorted on its own.
void sort_events(std::vector<TraceEvent>& events, std::uint32_t day_count) {
  const std::size_t buckets =
      std::max<std::uint64_t>(1, std::uint64_t{day_count} * 24 *
                                     kBucketsPerHour);
  // end[b] counts bucket b's events, becomes its start after the prefix
  // sum, and its end after the scatter.
  std::vector<std::size_t> end(buckets, 0);
  for (const TraceEvent& e : events) ++end[hour_bucket(e.hour, buckets)];
  std::size_t start = 0;
  for (std::size_t& slot : end) {
    const std::size_t count = slot;
    slot = start;
    start += count;
  }
  std::vector<TraceEvent> sorted(events.size());
  for (const TraceEvent& e : events) {
    sorted[end[hour_bucket(e.hour, buckets)]++] = e;
  }
  events.swap(sorted);
  std::size_t begin = 0;
  for (const std::size_t bucket_end : end) {
    std::sort(events.begin() + static_cast<std::ptrdiff_t>(begin),
              events.begin() + static_cast<std::ptrdiff_t>(bucket_end),
              event_precedes);
    begin = bucket_end;
  }
}

/// Encodes one event record at `out` (kMaxEventBytes of room) and
/// returns its end.
char* encode_event(char* out, const TraceEvent& e,
                   std::int64_t& previous_user) {
  out = encode_u64(out, std::bit_cast<std::uint64_t>(e.hour));
  out = encode_varint(out, zigzag_encode(static_cast<std::int64_t>(e.user) -
                                         previous_user));
  previous_user = static_cast<std::int64_t>(e.user);
  out = encode_varint(out, e.address.value());
  *out++ = static_cast<char>(e.prefix.length());
  out = encode_varint(out, e.as);
  *out++ = static_cast<char>((e.cellular ? 0x01 : 0) | (e.initial ? 0x02 : 0));
  return out;
}

}  // namespace

TraceWriter::Totals TraceWriter::finish() {
  if (finished_) {
    throw std::logic_error("TraceWriter::finish called twice");
  }
  if (appended_ != meta_.user_count) {
    throw std::invalid_argument(
        "TraceWriter::finish: shard declared " +
        std::to_string(meta_.user_count) + " users but got " +
        std::to_string(appended_));
  }

  // The merged stream's total order; ties are impossible (strictly
  // increasing start hours per user, one user id per trace).
  sort_events(events_, meta_.day_count);

  ShardHeader header;
  header.seed = meta_.seed;
  header.shard_index = meta_.shard_index;
  header.shard_count = meta_.shard_count;
  header.first_user = meta_.first_user;
  header.user_count = meta_.user_count;
  header.day_count = meta_.day_count;
  header.visit_count = visit_count_;
  header.event_count = events_.size();
  header.events_offset = kHeaderBytes + blocks_.size();

  // The sections stream straight to the file while the footer CRC folds
  // over them in order, so the writer never holds an encoded copy of the
  // whole shard.
  std::ofstream out(file_, std::ios::binary | std::ios::trunc);
  std::uint32_t crc = 0;
  std::uint64_t bytes = 0;
  const auto fail = [&] {
    out.close();
    std::error_code ec;
    std::filesystem::remove(file_, ec);
    throw TraceFormatError(file_.string() + ": shard write failed");
  };
  const auto write = [&](const char* data, std::size_t size) {
    if (!out.write(data, static_cast<std::streamsize>(size))) fail();
    bytes += size;
  };
  const auto write_checksummed = [&](const char* data, std::size_t size) {
    crc = net::crc32(crc, data, size);
    write(data, size);
  };

  std::vector<char> head;
  encode_header(head, header);
  write_checksummed(head.data(), head.size());
  write_checksummed(blocks_.data(), blocks_.size());
  std::vector<char> chunk(kEventChunkBytes + kMaxEventBytes);
  char* end = chunk.data();
  std::int64_t previous_user = 0;
  for (const TraceEvent& e : events_) {
    end = encode_event(end, e, previous_user);
    if (end >= chunk.data() + kEventChunkBytes) {
      write_checksummed(chunk.data(),
                        static_cast<std::size_t>(end - chunk.data()));
      end = chunk.data();
    }
  }
  write_checksummed(chunk.data(), static_cast<std::size_t>(end - chunk.data()));
  std::vector<char> footer;
  net::put_footer(footer, kFooterMagic, crc, bytes + kFooterBytes);
  write(footer.data(), footer.size());
  if (!out.flush()) fail();
  finished_ = true;

  obs::metric::trace_shards_written().add(1);
  obs::metric::trace_bytes_written().add(bytes);
  obs::metric::trace_visits_written().add(visit_count_);
  obs::metric::trace_events_written().add(events_.size());
  return Totals{bytes, visit_count_, events_.size()};
}

}  // namespace lina::trace
