#include "lina/trace/reader.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <exception>

#include "lina/exec/parallel.hpp"
#include "lina/net/crc32.hpp"
#include "lina/obs/metrics.hpp"

namespace lina::trace {

ShardHeader validate_shard(const std::filesystem::path& path, Validate mode) {
  const std::string name = path.string();
  const auto file = net::MappedFile::open<TraceFormatError>(path);
  const std::uint32_t stored = net::decode_footer<TraceFormatError>(
      file.data(), file.size(), kHeaderBytes, kFooterMagic, name);
  const ShardHeader header = decode_header(file.data(), file.size(), name);
  if (mode == Validate::kCrc) {
    const std::uint32_t crc =
        net::crc32(0, file.data(), file.size() - kFooterBytes);
    if (crc != stored) {
      throw TraceFormatError(name + ": CRC32 mismatch (stored " +
                             std::to_string(stored) + ", computed " +
                             std::to_string(crc) + ") — corrupt shard");
    }
  }
  return header;
}

std::uint32_t shard_footer_crc(const std::filesystem::path& path) {
  const auto file = net::MappedFile::open<TraceFormatError>(path);
  return net::decode_footer<TraceFormatError>(file.data(), file.size(),
                                              kHeaderBytes, kFooterMagic,
                                              path.string());
}

ShardSet ShardSet::discover(const std::filesystem::path& dir, Validate mode) {
  if (!std::filesystem::is_directory(dir)) {
    throw TraceFormatError(dir.string() + ": not a trace-set directory");
  }
  ShardSet set;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (!entry.is_regular_file() || entry.path().extension() != ".ltrc") {
      continue;
    }
    set.shards_.push_back(
        ShardInfo{entry.path(), validate_shard(entry.path(), mode)});
  }
  if (set.shards_.empty()) {
    throw TraceFormatError(dir.string() + ": no .ltrc shards found");
  }
  std::sort(set.shards_.begin(), set.shards_.end(),
            [](const ShardInfo& a, const ShardInfo& b) {
              return a.header.shard_index < b.header.shard_index;
            });
  const ShardHeader& first = set.shards_.front().header;
  if (set.shards_.size() != first.shard_count) {
    throw TraceFormatError(
        dir.string() + ": found " + std::to_string(set.shards_.size()) +
        " shards, headers declare " + std::to_string(first.shard_count));
  }
  std::uint32_t expected_user = first.first_user;
  for (std::size_t i = 0; i < set.shards_.size(); ++i) {
    const ShardHeader& h = set.shards_[i].header;
    const std::string name = set.shards_[i].path.string();
    if (h.shard_index != i) {
      throw TraceFormatError(dir.string() + ": shard index " +
                             std::to_string(i) + " is missing or duplicated");
    }
    if (h.seed != first.seed || h.day_count != first.day_count ||
        h.shard_count != first.shard_count) {
      throw TraceFormatError(name +
                             ": seed/day-count/shard-count disagrees with "
                             "the rest of the set");
    }
    if (h.first_user != expected_user) {
      throw TraceFormatError(name + ": user range starts at " +
                             std::to_string(h.first_user) + ", expected " +
                             std::to_string(expected_user) +
                             " (ranges must be contiguous)");
    }
    expected_user += h.user_count;
  }
  return set;
}

std::uint32_t ShardSet::user_count() const {
  std::uint32_t n = 0;
  for (const ShardInfo& s : shards_) n += s.header.user_count;
  return n;
}

std::uint64_t ShardSet::visit_count() const {
  std::uint64_t n = 0;
  for (const ShardInfo& s : shards_) n += s.header.visit_count;
  return n;
}

std::uint64_t ShardSet::event_count() const {
  std::uint64_t n = 0;
  for (const ShardInfo& s : shards_) n += s.header.event_count;
  return n;
}

std::uint64_t ShardSet::seed() const { return shards_.front().header.seed; }

std::uint32_t ShardSet::day_count() const {
  return shards_.front().header.day_count;
}

TraceReader::TraceReader(const ShardInfo& shard)
    : shard_(shard),
      name_(shard.path.string()),
      file_(net::MappedFile::open<TraceFormatError>(shard.path)),
      cursor_(nullptr, 0, name_) {
  // The header was validated against the file's size then; a file cut
  // short since must not send the cursor past the mapping.
  const std::uint64_t events_offset = shard_.header.events_offset;
  if (file_.size() < kFooterBytes ||
      events_offset > file_.size() - kFooterBytes) {
    throw TraceFormatError(name_ + ": file of " +
                           std::to_string(file_.size()) +
                           " bytes ends before its event section at offset " +
                           std::to_string(events_offset) + " (truncated?)");
  }
  cursor_ = ByteCursor(file_.data() + kHeaderBytes,
                       events_offset - kHeaderBytes, name_);
  obs::metric::trace_shards_read().add(1);
  obs::metric::trace_bytes_read().add(events_offset - kHeaderBytes);
}

namespace {

/// Decodes the user block at the cursor: the whole per-user format, shared
/// by TraceReader::next and TraceReader::next_batch. `expected` is the
/// user id the block must hold; columns decode into `scratch`.
mobility::DeviceTrace decode_user(ByteCursor& cursor,
                                  const ShardHeader& header,
                                  std::uint32_t expected,
                                  const std::string& name,
                                  std::vector<mobility::DeviceVisit>& scratch) {
  const auto user_id = static_cast<std::uint32_t>(cursor.varint());
  if (user_id != expected) {
    throw TraceFormatError(name + ": user block holds id " +
                           std::to_string(user_id) + ", expected " +
                           std::to_string(expected));
  }
  const auto bad_visit = [&](const std::string& what) {
    return TraceFormatError(name + ": " + what + " for user " +
                            std::to_string(user_id));
  };
  const std::uint64_t visit_count = cursor.varint();
  if (visit_count == 0 || visit_count > header.visit_count) {
    throw bad_visit("implausible visit count " + std::to_string(visit_count));
  }
  const std::uint8_t flags = cursor.u8();

  // Columns decode into the reused scratch row, which is then appended to
  // a trace reserved to size: one allocation per decoded user.
  std::vector<mobility::DeviceVisit>& visits = scratch;
  visits.resize(visit_count);
  double start = cursor.f64();
  for (auto& v : visits) {
    v.duration_hours = cursor.f64();
    if (!std::isfinite(v.duration_hours) || v.duration_hours <= 0.0) {
      throw bad_visit("non-finite or non-positive duration");
    }
  }
  if ((flags & kBlockExplicitStarts) != 0) {
    for (auto& v : visits) v.start_hour = cursor.f64();
  } else {
    // The generator's own accumulation, replayed op-for-op: bit-identical
    // start hours without storing them.
    for (auto& v : visits) {
      v.start_hour = start;
      start = start + v.duration_hours;
    }
  }
  for (const auto& v : visits) {
    if (!std::isfinite(v.start_hour)) throw bad_visit("non-finite start hour");
  }
  // Deltas accumulate modulo 2^64 so a corrupt varint cannot overflow.
  std::uint64_t address = 0;
  for (auto& v : visits) {
    address += static_cast<std::uint64_t>(zigzag_decode(cursor.varint()));
    v.address = net::Ipv4Address(static_cast<std::uint32_t>(address));
  }
  for (auto& v : visits) {
    const std::uint8_t length = cursor.u8();
    if (length > 32) {
      throw bad_visit("prefix length " + std::to_string(length));
    }
    v.prefix = net::Prefix(v.address, length);
  }
  std::uint64_t as = 0;
  for (auto& v : visits) {
    as += static_cast<std::uint64_t>(zigzag_decode(cursor.varint()));
    v.as = static_cast<topology::AsId>(as);
  }
  for (std::size_t i = 0; i < visits.size(); i += 8) {
    const std::uint8_t bits = cursor.u8();
    for (std::size_t b = 0; b < 8 && i + b < visits.size(); ++b) {
      visits[i + b].cellular = (bits & (1u << b)) != 0;
    }
  }

  mobility::DeviceTrace trace(user_id, header.day_count);
  trace.reserve(visits.size());
  try {
    for (const mobility::DeviceVisit& v : visits) trace.append(v);
  } catch (const std::invalid_argument& error) {
    // Finite, positive hours that still break coverage (a gap, a first
    // visit off hour 0): corrupt explicit starts.
    throw bad_visit(error.what());
  }
  return trace;
}

/// Steps the cursor over one user block without decoding its values: the
/// boundary scan of TraceReader::next_batch. Throws TraceFormatError when
/// the block cannot be bounded.
void skip_user_block(ByteCursor& cursor, const std::string& name) {
  (void)cursor.varint();  // user id
  const std::uint64_t count = cursor.varint();
  const std::uint8_t flags = cursor.u8();
  // Every visit takes at least 8 bytes, so a count above the bytes left
  // cannot be bounded; checking first keeps 16 * count from overflowing.
  if (count > cursor.remaining()) {
    throw TraceFormatError(name + ": visit count " + std::to_string(count) +
                           " exceeds the " +
                           std::to_string(cursor.remaining()) +
                           " bytes left in the user blocks");
  }
  const auto n = static_cast<std::size_t>(count);
  const std::size_t f64_columns =
      (flags & kBlockExplicitStarts) != 0 ? 2 : 1;
  cursor.skip(8 + 8 * n * f64_columns);  // first start, durations[, starts]
  cursor.skip_varints(n);                // address deltas
  cursor.skip(n);                        // prefix lengths
  cursor.skip_varints(n);                // AS deltas
  cursor.skip((n + 7) / 8);              // cellular bitmap
}

/// Users per decode task of TraceReader::next_batch: each task owns one
/// cursor and one scratch row.
constexpr std::size_t kDecodeChunkUsers = 64;

}  // namespace

void TraceReader::expect_consumed() const {
  if (!cursor_.done()) {
    throw TraceFormatError(name_ + ": " +
                           std::to_string(cursor_.remaining()) +
                           " stray bytes after the last user block");
  }
}

std::optional<mobility::DeviceTrace> TraceReader::next() {
  if (decoded_ == shard_.header.user_count) {
    expect_consumed();
    return std::nullopt;
  }
  mobility::DeviceTrace trace =
      decode_user(cursor_, shard_.header, shard_.header.first_user + decoded_,
                  name_, scratch_);
  ++decoded_;
  obs::metric::trace_visits_read().add(trace.visits().size());
  return trace;
}

std::size_t TraceReader::next_batch(std::size_t max_users,
                                    std::vector<mobility::DeviceTrace>& out) {
  if (decoded_ == shard_.header.user_count) {
    expect_consumed();
    return 0;
  }
  const std::size_t users =
      std::min<std::size_t>(max_users, shard_.header.user_count - decoded_);
  if (users == 0) return 0;

  // 1. Serial boundary scan: offsets[u] is where user u's block starts.
  // A block the scan cannot bound ends the scan; its user is still
  // decoded below, so the decoder raises that user's own first error.
  std::vector<std::size_t> offsets;
  offsets.reserve(users + 1);
  offsets.push_back(cursor_.offset());
  std::exception_ptr scan_error;
  {
    ByteCursor scan = cursor_;
    for (std::size_t u = 0; u < users; ++u) {
      try {
        skip_user_block(scan, name_);
      } catch (const TraceFormatError&) {
        scan_error = std::current_exception();
        break;
      }
      offsets.push_back(scan.offset());
    }
  }
  const std::size_t decode = scan_error ? offsets.size() : users;

  // 2. Parallel decode, each task into its own output slots. The pool
  // rethrows the lowest failing task's error and a task stops at its
  // first failing user, so a corrupt batch reports the serial reader's
  // error.
  const std::size_t base = out.size();
  const std::uint32_t first_id = shard_.header.first_user + decoded_;
  for (std::size_t u = 0; u < decode; ++u) {
    out.emplace_back(first_id + static_cast<std::uint32_t>(u),
                     shard_.header.day_count);
  }
  const std::size_t chunks =
      (decode + kDecodeChunkUsers - 1) / kDecodeChunkUsers;
  try {
    exec::parallel_for(chunks, [&](std::size_t c) {
      const std::size_t begin = c * kDecodeChunkUsers;
      const std::size_t end = std::min(begin + kDecodeChunkUsers, decode);
      ByteCursor cursor = cursor_;
      cursor.seek(offsets[begin]);
      std::vector<mobility::DeviceVisit> scratch;
      for (std::size_t u = begin; u < end; ++u) {
        const auto id = first_id + static_cast<std::uint32_t>(u);
        out[base + u] =
            decode_user(cursor, shard_.header, id, name_, scratch);
        if (u + 1 < offsets.size() && cursor.offset() != offsets[u + 1]) {
          throw TraceFormatError(
              name_ + ": user block of user " + std::to_string(id) +
              " ends at offset " + std::to_string(cursor.offset()) +
              ", the boundary scan put the next block at " +
              std::to_string(offsets[u + 1]));
        }
      }
    });
    if (scan_error) std::rethrow_exception(scan_error);
  } catch (...) {
    out.erase(out.begin() + static_cast<std::ptrdiff_t>(base), out.end());
    throw;
  }

  cursor_.seek(offsets.back());
  decoded_ += static_cast<std::uint32_t>(users);
  std::uint64_t visits = 0;
  for (std::size_t u = base; u < out.size(); ++u) {
    visits += out[u].visits().size();
  }
  obs::metric::trace_visits_read().add(visits);
  return users;
}

EventReader::EventReader(const ShardInfo& shard, std::size_t buffer_bytes)
    : shard_(shard),
      name_(shard.path.string()),
      file_(shard.path, std::ios::binary),
      buffer_(std::max<std::size_t>(buffer_bytes, 256)) {
  if (!file_) {
    throw TraceFormatError(name_ + ": cannot open shard");
  }
  file_.seekg(0, std::ios::end);
  const auto file_size = static_cast<std::uint64_t>(file_.tellg());
  section_left_ = file_size - kFooterBytes - shard_.header.events_offset;
  file_.seekg(static_cast<std::streamoff>(shard_.header.events_offset));
}

void EventReader::refill() {
  const std::size_t keep = buffer_len_ - buffer_pos_;
  std::memmove(buffer_.data(), buffer_.data() + buffer_pos_, keep);
  buffer_pos_ = 0;
  buffer_len_ = keep;
  const std::size_t want = static_cast<std::size_t>(
      std::min<std::uint64_t>(section_left_, buffer_.size() - buffer_len_));
  if (want == 0) return;
  if (!file_.read(buffer_.data() + buffer_len_,
                  static_cast<std::streamsize>(want))) {
    throw TraceFormatError(name_ + ": read failed in event section");
  }
  buffer_len_ += want;
  section_left_ -= want;
  obs::metric::trace_bytes_read().add(want);
}

bool EventReader::next(TraceEvent& out) {
  if (decoded_ == shard_.header.event_count) return false;
  // An encoded event is at most 25 bytes; refill keeps at least one whole
  // record in the window so varints never straddle a buffer boundary.
  if (buffer_len_ - buffer_pos_ < 32 && section_left_ > 0) refill();
  ByteCursor cursor(buffer_.data() + buffer_pos_, buffer_len_ - buffer_pos_,
                    name_);
  out.hour = cursor.f64();
  previous_user_ += static_cast<std::uint64_t>(zigzag_decode(cursor.varint()));
  out.user = static_cast<std::uint32_t>(previous_user_);
  if (!std::isfinite(out.hour)) {
    throw TraceFormatError(name_ + ": non-finite event hour for user " +
                           std::to_string(out.user));
  }
  out.address =
      net::Ipv4Address(static_cast<std::uint32_t>(cursor.varint()));
  const std::uint8_t length = cursor.u8();
  if (length > 32) {
    throw TraceFormatError(name_ + ": prefix length " +
                           std::to_string(length) + " in event section");
  }
  out.prefix = net::Prefix(out.address, length);
  out.as = static_cast<topology::AsId>(cursor.varint());
  const std::uint8_t flags = cursor.u8();
  out.cellular = (flags & 0x01) != 0;
  out.initial = (flags & 0x02) != 0;
  buffer_pos_ += cursor.offset();
  ++decoded_;
  return true;
}

}  // namespace lina::trace
