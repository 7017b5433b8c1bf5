#pragma once

#include <cstdint>
#include <filesystem>
#include <vector>

#include "lina/mobility/device_trace.hpp"
#include "lina/trace/format.hpp"

namespace lina::trace {

/// Identity of one shard inside a trace set; becomes the shard header.
struct ShardMeta {
  std::uint64_t seed = 0;
  std::uint32_t shard_index = 0;
  std::uint32_t shard_count = 1;
  std::uint32_t first_user = 0;
  std::uint32_t user_count = 0;  // exact number of append() calls expected
  std::uint32_t day_count = 0;
};

/// Writes one shard file. Traces must arrive in ascending user-id order,
/// user ids must lie in [first_user, first_user + user_count), and exactly
/// user_count traces must be appended before finish().
///
/// User blocks are encoded into memory as they arrive; attachment events
/// are buffered as 32-byte TraceEvent records so finish() can order them
/// by (hour, user) — a counting pass into 1/64-hour buckets plus a small
/// sort per bucket, linear in the event count. finish() then streams the
/// header, the user blocks and the event section (encoded 64 KiB at a
/// time) straight to the file, folding the footer CRC32 over them on the
/// way; no staging copy of the shard is built. Peak memory per in-flight
/// shard is therefore its encoded user blocks plus two event-record
/// arrays during the sort (~38 MB for 2048 users × 30 days): pick
/// users_per_shard to fit your budget (StreamingWorkload's default keeps
/// a shard in the tens of megabytes).
class TraceWriter {
 public:
  struct Totals {
    std::uint64_t bytes = 0;
    std::uint64_t visits = 0;
    std::uint64_t events = 0;
  };

  TraceWriter(std::filesystem::path file, ShardMeta meta);
  ~TraceWriter();  // abandons (removes) the file if finish() was not called

  TraceWriter(const TraceWriter&) = delete;
  TraceWriter& operator=(const TraceWriter&) = delete;

  /// Encodes one user's trace (its day_count must match the shard's).
  void append(const mobility::DeviceTrace& trace);

  /// Orders the event section, writes the file, and returns byte/record
  /// totals. Throws TraceFormatError on I/O failure; the partial file is
  /// removed so a crashed write never leaves a truncated shard behind.
  Totals finish();

 private:
  std::filesystem::path file_;
  ShardMeta meta_;
  std::vector<char> blocks_;        // encoded user blocks
  std::vector<TraceEvent> events_;  // buffered for the (hour, user) sort
  std::uint64_t visit_count_ = 0;
  std::uint32_t appended_ = 0;
  std::uint32_t next_user_ = 0;
  bool finished_ = false;
};

}  // namespace lina::trace
