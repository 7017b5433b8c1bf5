#pragma once

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "lina/mobility/device_trace.hpp"
#include "lina/trace/format.hpp"

namespace lina::trace {

/// One shard on disk: path plus its validated header.
struct ShardInfo {
  std::filesystem::path path;
  ShardHeader header;
};

/// How much of a shard file to check before trusting it.
enum class Validate : std::uint8_t {
  kHeader,  // header + footer magic and size bookkeeping (cheap)
  kCrc,     // kHeader plus a full sequential CRC32 scan
};

/// Validates one shard file and returns its header. Throws
/// TraceFormatError naming the file and the failed check (bad magic,
/// version/endianness mismatch, truncation, size bookkeeping, CRC).
[[nodiscard]] ShardHeader validate_shard(const std::filesystem::path& path,
                                         Validate mode = Validate::kCrc);

/// The CRC32 a shard's footer stores (over every byte before the footer).
/// Checks the footer magic and size bookkeeping, not the CRC itself.
[[nodiscard]] std::uint32_t shard_footer_crc(
    const std::filesystem::path& path);

/// A complete trace set: every `*.ltrc` shard of a directory, sorted by
/// shard index and validated as one consistent set (same seed, day count
/// and shard count everywhere; shard indexes 0..k-1 each present once;
/// user-id ranges contiguous and ascending). Throws TraceFormatError on
/// any inconsistency, and on an empty or missing directory.
class ShardSet {
 public:
  [[nodiscard]] static ShardSet discover(const std::filesystem::path& dir,
                                         Validate mode = Validate::kCrc);

  [[nodiscard]] const std::vector<ShardInfo>& shards() const {
    return shards_;
  }
  [[nodiscard]] std::uint32_t user_count() const;
  [[nodiscard]] std::uint64_t visit_count() const;
  [[nodiscard]] std::uint64_t event_count() const;
  [[nodiscard]] std::uint64_t seed() const;
  [[nodiscard]] std::uint32_t day_count() const;

 private:
  std::vector<ShardInfo> shards_;
};

/// Sequential per-user decoder of one shard. Maps the shard read-only and
/// decodes its user blocks in place (resident at most: one shard's user
/// blocks, the same users_per_shard-sized bound the writer obeys),
/// yielding DeviceTraces in ascending user-id order. A shard cut short
/// since it was validated is a TraceFormatError naming the file.
class TraceReader {
 public:
  explicit TraceReader(const ShardInfo& shard);

  // cursor_ views file_ and name_, so a reader stays where it was built.
  TraceReader(const TraceReader&) = delete;
  TraceReader& operator=(const TraceReader&) = delete;

  [[nodiscard]] const ShardHeader& header() const { return shard_.header; }

  /// The next user's trace, or nullopt when the shard is exhausted (after
  /// which the user-block section must be fully consumed — leftover bytes
  /// are a format error). A non-finite or non-positive duration, a
  /// non-finite start hour or broken coverage is a TraceFormatError
  /// naming the shard and the user.
  [[nodiscard]] std::optional<mobility::DeviceTrace> next();

  /// Appends the next min(max_users, users left) traces to `out` and
  /// returns how many; 0 once the shard is exhausted, with the same
  /// leftover-bytes check as next(). A serial scan records every user
  /// block's boundary, then blocks decode in parallel on the lina::exec
  /// pool (inline inside a parallel region). The traces, the counters and
  /// any thrown error (user and message) equal a loop of next(); on a
  /// throw, `out` and the reader are left as they were.
  std::size_t next_batch(std::size_t max_users,
                         std::vector<mobility::DeviceTrace>& out);

 private:
  void expect_consumed() const;

  ShardInfo shard_;
  std::string name_;  // shard path, the context of every error
  net::MappedFile file_;
  ByteCursor cursor_;  // over the user-block section
  std::vector<mobility::DeviceVisit> scratch_;  // one user's decoded columns
  std::uint32_t decoded_ = 0;
};

/// Streaming decoder of one shard's (hour, user)-sorted event section with
/// a fixed-size read buffer — the bounded per-shard state of TraceCursor's
/// k-way merge (the whole merge holds k buffers, never a decoded shard).
class EventReader {
 public:
  explicit EventReader(const ShardInfo& shard,
                       std::size_t buffer_bytes = 256 * 1024);

  [[nodiscard]] const ShardHeader& header() const { return shard_.header; }

  /// Decodes the next event into `out`; false when exhausted. A
  /// non-finite hour is a TraceFormatError naming the shard and the user.
  [[nodiscard]] bool next(TraceEvent& out);

 private:
  void refill();

  ShardInfo shard_;
  std::string name_;  // shard path, the context of every error
  std::ifstream file_;
  std::vector<char> buffer_;
  std::size_t buffer_pos_ = 0;   // consumed bytes of buffer_
  std::size_t buffer_len_ = 0;   // valid bytes in buffer_
  std::uint64_t section_left_;   // unread bytes of the event section
  std::uint64_t decoded_ = 0;
  std::uint64_t previous_user_ = 0;  // delta base, modulo 2^64
};

}  // namespace lina::trace
