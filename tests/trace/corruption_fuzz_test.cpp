// Seeded corruption fuzzing for the trace store: a small shard is
// truncated at *every* byte offset and bombarded with random byte flips,
// and the reader stack (validate_shard, TraceReader, TraceCursor) must
// always either decode correctly or throw a named TraceFormatError —
// never crash, never return garbage silently. Without the CRC scan
// (Validate::kHeader) a flip may decode cleanly, but it still must never
// surface as another exception type or undefined behaviour. Runs under the sanitize
// preset via `ctest -L trace`, where any out-of-bounds decode would trip
// ASan/UBSan rather than luck its way through.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <random>
#include <stdexcept>
#include <string>
#include <typeinfo>
#include <vector>

#include "../support/fixtures.hpp"
#include "lina/trace/cursor.hpp"
#include "lina/trace/reader.hpp"
#include "lina/trace/streaming.hpp"
#include "lina/trace/writer.hpp"
#include "trace_test_util.hpp"

namespace lina::trace {
namespace {

using lina::testing::read_file;
using lina::testing::shared_device_traces;
using lina::testing::shared_internet;
using lina::testing::TempTraceDir;
using lina::testing::ThreadCountGuard;
using lina::testing::write_file;

/// A deliberately small shard (3 users) so exhaustive per-offset
/// truncation stays fast while still covering header, user-block,
/// event-section and footer bytes.
std::filesystem::path write_small_shard(const TempTraceDir& dir) {
  const auto& traces = shared_device_traces();
  constexpr std::uint32_t kUsers = 3;
  ShardMeta meta;
  meta.seed = 7;
  meta.shard_index = 0;
  meta.shard_count = 1;
  meta.first_user = traces.front().user_id();
  meta.user_count = kUsers;
  meta.day_count = static_cast<std::uint32_t>(traces.front().day_count());
  const auto path = dir.path() / shard_file_name(0);
  TraceWriter writer(path, meta);
  for (std::uint32_t i = 0; i < kUsers; ++i) writer.append(traces[i]);
  (void)writer.finish();
  return path;
}

/// Runs the full read stack over one (possibly corrupt) shard file.
/// Returns the number of decoded users+events on success; throws
/// TraceFormatError when the corruption is detected. Anything else —
/// another exception type, a crash, a sanitizer report — fails the test.
std::size_t drain_shard(const std::filesystem::path& dir,
                        const std::filesystem::path& path) {
  std::size_t decoded = 0;
  const ShardHeader header = validate_shard(path, Validate::kCrc);
  TraceReader reader(ShardInfo{path, header});
  while (reader.next().has_value()) ++decoded;
  const ShardSet set = ShardSet::discover(dir, Validate::kCrc);
  TraceCursor cursor(set, 4 * 1024);
  TraceEvent event;
  while (cursor.next(event)) ++decoded;
  return decoded;
}

TEST(TraceCorruptionFuzzTest, TruncationAtEveryOffsetIsDetected) {
  TempTraceDir dir("fuzz-truncate");
  const auto path = write_small_shard(dir);
  const std::vector<char> pristine = read_file(path);
  const std::size_t whole = drain_shard(dir.path(), path);
  ASSERT_GT(whole, 0u);

  for (std::size_t cut = 0; cut < pristine.size(); ++cut) {
    std::vector<char> bytes = pristine;
    bytes.resize(cut);
    write_file(path, bytes);
    EXPECT_THROW((void)drain_shard(dir.path(), path), TraceFormatError)
        << "truncation to " << cut << " of " << pristine.size()
        << " bytes must be detected";
  }
  write_file(path, pristine);
  EXPECT_EQ(drain_shard(dir.path(), path), whole);
}

TEST(TraceCorruptionFuzzTest, SeededByteFlipsNeverCrashTheReaders) {
  TempTraceDir dir("fuzz-flip");
  const auto path = write_small_shard(dir);
  const std::vector<char> pristine = read_file(path);
  const std::size_t whole = drain_shard(dir.path(), path);

  std::mt19937_64 rng(0x7ace5eedULL);
  std::uniform_int_distribution<std::size_t> pick_offset(
      0, pristine.size() - 1);
  std::uniform_int_distribution<int> pick_xor(1, 255);

  std::size_t detected = 0;
  constexpr int kTrials = 400;
  for (int trial = 0; trial < kTrials; ++trial) {
    std::vector<char> bytes = pristine;
    const std::size_t offset = pick_offset(rng);
    bytes[offset] = static_cast<char>(
        static_cast<unsigned char>(bytes[offset]) ^ pick_xor(rng));
    write_file(path, bytes);
    try {
      // A flip that survives validation must still decode cleanly (it
      // can only be a no-op under the CRC, i.e. the same bytes).
      EXPECT_EQ(drain_shard(dir.path(), path), whole);
    } catch (const TraceFormatError&) {
      ++detected;  // named rejection, as designed
    }
  }
  // Every byte of a shard is covered by the whole-file CRC, so
  // effectively all flips must have been caught by name.
  EXPECT_EQ(detected, static_cast<std::size_t>(kTrials));
  write_file(path, pristine);
}

/// How decoding every user of a header-validated set ends — the trust
/// level TraceCursor and the packet replay run at, where no CRC scan
/// stands between a flipped byte and the decoders: the number of users
/// decoded, or the type and message of the error that stopped it.
/// `batch` 0 decodes one user at a time with next(); any other value
/// decodes through next_batch(batch).
std::string user_outcome(const ShardSet& set, std::size_t batch) {
  try {
    DeviceTraceStream stream(set);
    std::size_t users = 0;
    if (batch == 0) {
      while (stream.next().has_value()) ++users;
    } else {
      while (const std::size_t got = stream.next_batch(batch).size()) {
        users += got;
      }
    }
    return "decoded " + std::to_string(users) + " users";
  } catch (const TraceFormatError& error) {
    return std::string("TraceFormatError: ") + error.what();
  } catch (const std::exception& error) {
    return std::string(typeid(error).name()) + ": " + error.what();
  }
}

TEST(TraceCorruptionFuzzTest, HeaderValidatedFlipsDecodeOrThrowByName) {
  const ThreadCountGuard guard;
  exec::set_default_threads(4);
  TempTraceDir dir("fuzz-header-set");
  const auto path = write_small_shard(dir);
  const std::vector<char> pristine = read_file(path);
  const std::uint64_t events_offset =
      validate_shard(path, Validate::kHeader).events_offset;
  ASSERT_EQ(user_outcome(ShardSet::discover(dir.path(), Validate::kHeader), 0),
            "decoded 3 users");

  // Flips land only in the user blocks and the event section: the header
  // and footer are what kHeader does check.
  std::mt19937_64 rng(0x5eedf11bULL);
  std::uniform_int_distribution<std::size_t> pick_offset(
      kHeaderBytes, pristine.size() - kFooterBytes - 1);
  std::uniform_int_distribution<int> pick_xor(1, 255);

  std::size_t in_blocks = 0;
  std::size_t in_events = 0;
  std::size_t rejected = 0;
  constexpr int kTrials = 1500;
  for (int trial = 0; trial < kTrials; ++trial) {
    std::vector<char> bytes = pristine;
    const std::size_t offset = pick_offset(rng);
    bytes[offset] = static_cast<char>(
        static_cast<unsigned char>(bytes[offset]) ^ pick_xor(rng));
    if (offset < events_offset) {
      ++in_blocks;
    } else {
      ++in_events;
    }
    write_file(path, bytes);
    const ShardSet set = ShardSet::discover(dir.path(), Validate::kHeader);
    // Users: the one-user and the batch path must end the same way.
    const std::string one_by_one = user_outcome(set, 0);
    for (const std::size_t batch : {1u, 2u, 3u}) {
      EXPECT_EQ(user_outcome(set, batch), one_by_one)
          << "flip at offset " << offset << ", batch " << batch;
    }
    bool flip_rejected = one_by_one.rfind("TraceFormatError: ", 0) == 0;
    if (!flip_rejected && one_by_one.rfind("decoded ", 0) != 0) {
      ADD_FAILURE() << "flip at offset " << offset
                    << " escaped as a non-format error: " << one_by_one;
    }
    // Events: decode or throw by name.
    try {
      TraceCursor cursor(set, 4 * 1024);
      TraceEvent event;
      while (cursor.next(event)) {
      }
    } catch (const TraceFormatError&) {
      flip_rejected = true;
    } catch (const std::exception& error) {
      ADD_FAILURE() << "flip at offset " << offset
                    << " escaped as a non-format error: " << error.what();
    }
    if (flip_rejected) ++rejected;
  }
  EXPECT_GT(in_blocks, 0u);
  EXPECT_GT(in_events, 0u);
  EXPECT_GT(rejected, 0u);
  write_file(path, pristine);
}

TEST(TraceCorruptionFuzzTest, BatchDecodeReportsTheSerialErrorAcrossTasks) {
  // 300 users span several decode tasks, so a corrupt block meets
  // failures in later tasks that run concurrently: the batch must still
  // report the first failing user's own error, as next() does.
  const ThreadCountGuard guard;
  exec::set_default_threads(4);
  TempTraceDir dir("fuzz-batch-tasks");
  mobility::DeviceWorkloadConfig config;
  config.user_count = 300;
  config.days = 1;
  const mobility::DeviceWorkloadGenerator generator(shared_internet(), config);
  StreamingWorkloadConfig stream_config;
  stream_config.users_per_shard = 300;
  const ShardSet set =
      StreamingWorkload(generator, stream_config).write_shards(dir.path());
  const ShardInfo& shard = set.shards().front();
  ASSERT_EQ(user_outcome(set, 300), "decoded 300 users");

  const std::vector<char> pristine = read_file(shard.path);
  std::mt19937_64 rng(0xba7c4ed5ULL);
  std::uniform_int_distribution<std::size_t> pick_offset(
      kHeaderBytes, shard.header.events_offset - 1);
  std::uniform_int_distribution<int> pick_xor(1, 255);
  std::size_t rejected = 0;
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<char> bytes = pristine;
    const std::size_t offset = pick_offset(rng);
    bytes[offset] = static_cast<char>(
        static_cast<unsigned char>(bytes[offset]) ^ pick_xor(rng));
    write_file(shard.path, bytes);
    const ShardSet flipped = ShardSet::discover(dir.path(), Validate::kHeader);
    const std::string one_by_one = user_outcome(flipped, 0);
    for (const std::size_t batch : {300u, 100u}) {
      EXPECT_EQ(user_outcome(flipped, batch), one_by_one)
          << "flip at offset " << offset << ", batch " << batch;
    }
    if (one_by_one.rfind("TraceFormatError: ", 0) == 0) ++rejected;
  }
  write_file(shard.path, pristine);
  EXPECT_GT(rejected, 0u);
}

}  // namespace
}  // namespace lina::trace
