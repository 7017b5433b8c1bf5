// Round-trip and corruption-detection tests for TraceWriter/TraceReader:
// a written shard decodes to bit-identical DeviceTraces, and truncated or
// bit-flipped shards are rejected with clear errors instead of decoding
// into garbage statistics.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include "../support/fixtures.hpp"
#include "lina/trace/reader.hpp"
#include "lina/trace/streaming.hpp"
#include "lina/trace/writer.hpp"
#include "trace_test_util.hpp"

namespace lina::trace {
namespace {

using lina::testing::TempTraceDir;
using lina::testing::shared_device_traces;

ShardMeta whole_population_meta() {
  const auto& traces = shared_device_traces();
  ShardMeta meta;
  meta.seed = 7;
  meta.shard_index = 0;
  meta.shard_count = 1;
  meta.first_user = 0;
  meta.user_count = static_cast<std::uint32_t>(traces.size());
  meta.day_count = static_cast<std::uint32_t>(traces.front().day_count());
  return meta;
}

std::filesystem::path write_population_shard(const TempTraceDir& dir) {
  const auto path = dir.path() / shard_file_name(0);
  TraceWriter writer(path, whole_population_meta());
  for (const auto& trace : shared_device_traces()) writer.append(trace);
  (void)writer.finish();
  return path;
}

void expect_bit_identical(const mobility::DeviceTrace& decoded,
                          const mobility::DeviceTrace& original) {
  EXPECT_EQ(decoded.user_id(), original.user_id());
  EXPECT_EQ(decoded.day_count(), original.day_count());
  ASSERT_EQ(decoded.visits().size(), original.visits().size());
  for (std::size_t i = 0; i < original.visits().size(); ++i) {
    const auto& d = decoded.visits()[i];
    const auto& o = original.visits()[i];
    // Bitwise double comparison: replay must be exact, not approximate.
    EXPECT_EQ(std::bit_cast<std::uint64_t>(d.start_hour),
              std::bit_cast<std::uint64_t>(o.start_hour));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(d.duration_hours),
              std::bit_cast<std::uint64_t>(o.duration_hours));
    EXPECT_EQ(d.address, o.address);
    EXPECT_EQ(d.prefix, o.prefix);
    EXPECT_EQ(d.as, o.as);
    EXPECT_EQ(d.cellular, o.cellular);
  }
}

TEST(TraceRoundTripTest, WriterReaderRoundTripIsBitIdentical) {
  TempTraceDir dir("roundtrip");
  const auto path = write_population_shard(dir);

  TraceReader reader(ShardInfo{path, validate_shard(path)});
  for (const auto& original : shared_device_traces()) {
    const auto decoded = reader.next();
    ASSERT_TRUE(decoded.has_value());
    expect_bit_identical(*decoded, original);
  }
  EXPECT_FALSE(reader.next().has_value());
}

TEST(TraceRoundTripTest, HeaderCountsMatchContent) {
  TempTraceDir dir("counts");
  const auto path = write_population_shard(dir);
  const ShardHeader header = validate_shard(path);
  std::uint64_t visits = 0;
  for (const auto& trace : shared_device_traces()) {
    visits += trace.visits().size();
  }
  EXPECT_EQ(header.user_count, shared_device_traces().size());
  EXPECT_EQ(header.visit_count, visits);
  EXPECT_EQ(header.event_count, visits);  // one attachment per visit
}

TEST(TraceRoundTripTest, TruncatedShardRejected) {
  TempTraceDir dir("truncate");
  const auto path = write_population_shard(dir);
  lina::testing::truncate_file(path, 5);
  try {
    (void)validate_shard(path, Validate::kHeader);
    FAIL() << "expected TraceFormatError";
  } catch (const TraceFormatError& error) {
    EXPECT_NE(std::string(error.what()).find("truncated"),
              std::string::npos)
        << error.what();
  }
}

TEST(TraceRoundTripTest, CorruptPayloadRejectedByCrc) {
  TempTraceDir dir("corrupt");
  const auto path = write_population_shard(dir);
  const auto size = std::filesystem::file_size(path);
  lina::testing::flip_byte(path, size / 2);
  // The header is intact, so the cheap check passes...
  EXPECT_NO_THROW((void)validate_shard(path, Validate::kHeader));
  // ...and the CRC scan names the real problem.
  try {
    (void)validate_shard(path, Validate::kCrc);
    FAIL() << "expected TraceFormatError";
  } catch (const TraceFormatError& error) {
    EXPECT_NE(std::string(error.what()).find("CRC"), std::string::npos)
        << error.what();
  }
}

TEST(TraceRoundTripTest, CorruptHeaderRejected) {
  TempTraceDir dir("corrupt-header");
  const auto path = write_population_shard(dir);
  lina::testing::flip_byte(path, 1);  // inside the magic
  EXPECT_THROW((void)validate_shard(path, Validate::kHeader),
               TraceFormatError);
}

TEST(TraceRoundTripTest, WriterEnforcesUserOrderAndCounts) {
  TempTraceDir dir("order");
  const auto& traces = shared_device_traces();
  {
    TraceWriter writer(dir.path() / shard_file_name(0),
                       whole_population_meta());
    writer.append(traces[0]);
    EXPECT_THROW(writer.append(traces[2]), std::invalid_argument);  // gap
  }
  {
    TraceWriter writer(dir.path() / shard_file_name(1),
                       whole_population_meta());
    writer.append(traces[0]);
    EXPECT_THROW((void)writer.finish(), std::invalid_argument);  // short
  }
  // Abandoned writers must not leave partial files behind.
  EXPECT_FALSE(std::filesystem::exists(dir.path() / shard_file_name(0)));
  EXPECT_FALSE(std::filesystem::exists(dir.path() / shard_file_name(1)));
}

TEST(TraceRoundTripTest, ShardSetRejectsEmptyOrInconsistentDirs) {
  TempTraceDir dir("shardset");
  EXPECT_THROW((void)ShardSet::discover(dir.path()), TraceFormatError);

  // A set whose only shard claims shard_count == 2 is incomplete.
  ShardMeta meta = whole_population_meta();
  meta.shard_count = 2;
  {
    TraceWriter writer(dir.path() / shard_file_name(0), meta);
    for (const auto& trace : shared_device_traces()) writer.append(trace);
    (void)writer.finish();
  }
  EXPECT_THROW((void)ShardSet::discover(dir.path()), TraceFormatError);
}

TEST(TraceRoundTripTest, ShardSetDiscoversStreamedWorkload) {
  TempTraceDir dir("discover");
  mobility::DeviceWorkloadConfig config;
  config.user_count = 50;
  config.days = 5;
  const mobility::DeviceWorkloadGenerator generator(
      lina::testing::shared_internet(), config);
  StreamingWorkloadConfig stream_config;
  stream_config.users_per_shard = 16;  // 50 users -> 4 shards
  const ShardSet written =
      StreamingWorkload(generator, stream_config).write_shards(dir.path());
  EXPECT_EQ(written.shards().size(), 4u);
  EXPECT_EQ(written.user_count(), 50u);
  EXPECT_EQ(written.day_count(), 5u);
  EXPECT_EQ(written.seed(), config.seed);

  const ShardSet rediscovered = ShardSet::discover(dir.path());
  EXPECT_EQ(rediscovered.shards().size(), written.shards().size());
  EXPECT_EQ(rediscovered.visit_count(), written.visit_count());

  // Refuses to mix trace sets in one directory.
  EXPECT_THROW((void)StreamingWorkload(generator, stream_config)
                   .write_shards(dir.path()),
               TraceFormatError);
}

TEST(TraceRoundTripTest, ShardTruncatedAfterDiscoveryIsNamed) {
  TempTraceDir dir("truncate-after-discover");
  mobility::DeviceWorkloadConfig config;
  config.user_count = 20;
  config.days = 3;
  const mobility::DeviceWorkloadGenerator generator(
      lina::testing::shared_internet(), config);
  StreamingWorkloadConfig stream_config;
  stream_config.users_per_shard = 10;  // 20 users -> 2 shards
  // write_shards validates the headers only (Validate::kHeader).
  const ShardSet set =
      StreamingWorkload(generator, stream_config).write_shards(dir.path());
  ASSERT_EQ(set.shards().size(), 2u);
  const ShardInfo& cut = set.shards()[1];

  const auto expect_named = [&](const auto& read) {
    try {
      read();
      ADD_FAILURE() << "expected TraceFormatError";
    } catch (const TraceFormatError& error) {
      EXPECT_NE(std::string(error.what()).find(cut.path.string()),
                std::string::npos)
          << error.what();
    }
  };
  // Shrinking cuts: one byte into the footer's room, inside the user
  // blocks, at the end of the header, and an empty file.
  const std::uint64_t offset = cut.header.events_offset;
  for (const std::uint64_t size :
       {offset + kFooterBytes - 1, offset / 2, std::uint64_t{kHeaderBytes},
        std::uint64_t{0}}) {
    std::filesystem::resize_file(cut.path, size);
    expect_named([&] { TraceReader reader(cut); });
    expect_named([&] {
      DeviceTraceStream stream(set);
      while (!stream.next_batch(7).empty()) {
      }
    });
  }
}

/// A hand-built two-day, two-user shard whose first user block has a
/// known layout: varint user 0, varint 3 visits, flags, then the f64
/// first start at kFirstStart and three f64 durations from kFirstDuration.
constexpr std::size_t kFirstStart = kHeaderBytes + 3;
constexpr std::size_t kFirstDuration = kFirstStart + 8;

std::filesystem::path write_tiny_shard(const TempTraceDir& dir) {
  const net::Prefix prefix = net::Prefix::parse("10.0.0.0/8");
  const auto visit = [&](double start, double duration, std::uint8_t host) {
    return mobility::DeviceVisit{start, duration,
                                 net::Ipv4Address(10, 0, 0, host), prefix, 1,
                                 false};
  };
  mobility::DeviceTrace first(0, 2);
  first.append(visit(0.0, 8.0, 1));
  first.append(visit(8.0, 16.0, 2));
  first.append(visit(24.0, 24.0, 1));
  mobility::DeviceTrace second(1, 2);
  second.append(visit(0.0, 48.0, 3));

  ShardMeta meta;
  meta.user_count = 2;
  meta.day_count = 2;
  const auto path = dir.path() / shard_file_name(0);
  TraceWriter writer(path, meta);
  writer.append(first);
  writer.append(second);
  (void)writer.finish();
  return path;
}

void patch_f64(const std::filesystem::path& path, std::size_t offset,
               double value) {
  std::vector<char> bytes = lina::testing::read_file(path);
  const auto bits = std::bit_cast<std::uint64_t>(value);
  for (int i = 0; i < 8; ++i) {
    bytes.at(offset + i) = static_cast<char>(bits >> (8 * i));
  }
  lina::testing::write_file(path, bytes);
}

/// The TraceFormatError message of decoding every user of a
/// header-validated shard ("" when it decodes cleanly).
std::string user_decode_error(const std::filesystem::path& path) {
  try {
    TraceReader reader(
        ShardInfo{path, validate_shard(path, Validate::kHeader)});
    while (reader.next().has_value()) {
    }
  } catch (const TraceFormatError& error) {
    return error.what();
  }
  return "";
}

void expect_names_shard_and_user(const std::string& message,
                                 const std::filesystem::path& path,
                                 const std::string& what) {
  EXPECT_NE(message.find(path.string()), std::string::npos) << message;
  EXPECT_NE(message.find("user 0"), std::string::npos) << message;
  EXPECT_NE(message.find(what), std::string::npos) << message;
}

TEST(TraceRoundTripTest, ReaderRejectsNonFiniteDuration) {
  TempTraceDir dir("nonfinite-duration");
  const auto path = write_tiny_shard(dir);
  ASSERT_EQ(user_decode_error(path), "");
  const std::vector<char> pristine = lina::testing::read_file(path);
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    lina::testing::write_file(path, pristine);
    patch_f64(path, kFirstDuration + 8, bad);
    expect_names_shard_and_user(user_decode_error(path), path, "duration");
  }
}

TEST(TraceRoundTripTest, ReaderRejectsNonPositiveDuration) {
  TempTraceDir dir("nonpositive-duration");
  const auto path = write_tiny_shard(dir);
  const std::vector<char> pristine = lina::testing::read_file(path);
  for (const double bad : {0.0, -8.0}) {
    lina::testing::write_file(path, pristine);
    patch_f64(path, kFirstDuration, bad);
    expect_names_shard_and_user(user_decode_error(path), path, "duration");
  }
}

TEST(TraceRoundTripTest, ReaderRejectsNonFiniteStartHour) {
  TempTraceDir dir("nonfinite-start");
  const auto path = write_tiny_shard(dir);
  const std::vector<char> pristine = lina::testing::read_file(path);
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    lina::testing::write_file(path, pristine);
    patch_f64(path, kFirstStart, bad);
    expect_names_shard_and_user(user_decode_error(path), path, "start hour");
  }
}

TEST(TraceRoundTripTest, EventReaderRejectsNonFiniteHour) {
  TempTraceDir dir("nonfinite-event");
  const auto path = write_tiny_shard(dir);
  const ShardHeader header = validate_shard(path, Validate::kHeader);
  // The first event is user 0's initial attachment; its hour leads it.
  patch_f64(path, header.events_offset,
            std::numeric_limits<double>::quiet_NaN());
  EventReader reader(ShardInfo{path, validate_shard(path, Validate::kHeader)});
  TraceEvent event;
  try {
    (void)reader.next(event);
    FAIL() << "expected TraceFormatError";
  } catch (const TraceFormatError& error) {
    expect_names_shard_and_user(error.what(), path, "hour");
  }
}

TEST(TraceRoundTripTest, WriterOrdersTiedAndEdgeHoursLikeAFullSort) {
  // 40 users over 2 days whose visits tie exactly within one hour (5.5),
  // crowd one bucket at distinct hours (5.6-5.9), and sit on bucket edges:
  // 0.0, 24.0, the last hour 47.0, the day end 48.0 and beyond it (hours
  // past the last day share the last bucket).
  constexpr std::uint32_t kUsers = 40;
  const net::Prefix prefix = net::Prefix::parse("10.0.0.0/8");
  std::vector<mobility::DeviceTrace> traces;
  std::vector<TraceEvent> expected;
  for (std::uint32_t u = 0; u < kUsers; ++u) {
    const std::vector<double> starts = {
        0.0,  5.5,  5.6 + 0.05 * (u % 7), 24.0, 47.0, 47.5 + 0.01 * u,
        48.0, 50.0 + u};
    mobility::DeviceTrace trace(u, 2);
    for (std::size_t i = 0; i < starts.size(); ++i) {
      const double duration =
          i + 1 < starts.size() ? starts[i + 1] - starts[i] : 1.0;
      const mobility::DeviceVisit v{
          starts[i], duration,
          net::Ipv4Address(10, 0, static_cast<std::uint8_t>(u),
                           static_cast<std::uint8_t>(i)),
          prefix, static_cast<topology::AsId>(u % 5), i % 2 == 1};
      trace.append(v);
      expected.push_back(TraceEvent{v.start_hour, u, v.address, v.prefix,
                                    v.as, v.cellular, i == 0});
    }
    traces.push_back(std::move(trace));
  }
  std::sort(expected.begin(), expected.end(), event_precedes);

  TempTraceDir dir("writer-order");
  ShardMeta meta;
  meta.user_count = kUsers;
  meta.day_count = 2;
  const auto path = dir.path() / shard_file_name(0);
  TraceWriter writer(path, meta);
  for (const auto& trace : traces) writer.append(trace);
  (void)writer.finish();

  EventReader reader(ShardInfo{path, validate_shard(path)});
  std::vector<TraceEvent> written;
  TraceEvent event;
  while (reader.next(event)) written.push_back(event);
  EXPECT_EQ(written, expected);
}

}  // namespace
}  // namespace lina::trace
