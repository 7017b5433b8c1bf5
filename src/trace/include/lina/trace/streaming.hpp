#pragma once

#include <cstdint>
#include <filesystem>
#include <memory>
#include <optional>
#include <vector>

#include "lina/mobility/device_workload.hpp"
#include "lina/trace/reader.hpp"
#include "lina/trace/writer.hpp"

namespace lina::trace {

/// Knobs of the generate-to-shards pipeline. users_per_shard is the
/// memory-vs-parallelism dial: each in-flight shard holds its encoded
/// user blocks and its event records in RAM (TraceWriter; a few tens of
/// MB at the default), and shards fan out across the lina::exec pool, so
/// peak memory is threads × one shard's writer state.
struct StreamingWorkloadConfig {
  std::size_t users_per_shard = 8192;
  /// Re-validate every shard (full CRC scan) right after writing.
  bool verify_after_write = false;
};

/// Streams a DeviceWorkloadGenerator's population straight to a shard
/// directory instead of a resident vector. Each shard covers a contiguous
/// user-id range and is generated from the users' own seed-labelled RNG
/// substreams, so the byte-identical shard set comes out at any thread
/// count — and the same workload resharded differently still replays the
/// same event stream (TraceCursor's order is a strict total order).
class StreamingWorkload {
 public:
  StreamingWorkload(const mobility::DeviceWorkloadGenerator& generator,
                    StreamingWorkloadConfig config = {})
      : generator_(generator), config_(config) {}

  /// Generates every shard into `dir` (created if missing; existing .ltrc
  /// files are an error — refuse to mix trace sets) and returns the
  /// validated set.
  ShardSet write_shards(const std::filesystem::path& dir) const;

  [[nodiscard]] const StreamingWorkloadConfig& config() const {
    return config_;
  }

 private:
  const mobility::DeviceWorkloadGenerator& generator_;
  StreamingWorkloadConfig config_;
};

/// Batched, bounded-memory replay of a trace set in ascending user-id
/// order: at most one shard's user blocks (the stream's TraceReader), one
/// batch's block offsets, plus what the caller keeps of the decoded users
/// are resident. Feeding batches to the core accumulators in this order
/// reproduces the in-memory evaluators bit-for-bit.
class DeviceTraceStream {
 public:
  explicit DeviceTraceStream(const ShardSet& set);

  /// A stream that starts at global user index `first_index`. Shards
  /// wholly before it are skipped by their header user counts, without
  /// being read; the users of the shard it falls in that precede it are
  /// decoded and dropped. Past the last user, the stream is empty.
  DeviceTraceStream(const ShardSet& set, std::size_t first_index);

  /// The next user's trace in user order; nullopt when exhausted.
  [[nodiscard]] std::optional<mobility::DeviceTrace> next();

  /// Up to `max_users` traces, in user order; empty when exhausted.
  /// Each shard's part of the batch goes through TraceReader::next_batch:
  /// a serial boundary scan, then user blocks decoded in parallel on the
  /// lina::exec pool. The result, and any error, equals `max_users` calls
  /// of next(). Throws std::invalid_argument when `max_users` is 0.
  [[nodiscard]] std::vector<mobility::DeviceTrace> next_batch(
      std::size_t max_users);

  [[nodiscard]] bool done() const;

  /// Global index of the next user to be returned (== number returned so
  /// far) — the `rng.split(t)` index for determinism-preserving sampling.
  [[nodiscard]] std::size_t next_index() const { return next_index_; }

 private:
  /// Opens the current shard's reader if none is open; false past the
  /// last shard.
  bool open_reader();

  const ShardSet* set_;
  std::size_t shard_ = 0;
  std::unique_ptr<TraceReader> reader_;
  std::size_t skip_ = 0;  // users to drop when shard_ is opened
  std::size_t next_index_ = 0;
};

/// The canonical shard-file name of shard `index` ("shard-00042.ltrc").
[[nodiscard]] std::filesystem::path shard_file_name(std::uint32_t index);

}  // namespace lina::trace
