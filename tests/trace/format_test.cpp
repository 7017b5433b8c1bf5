#include "lina/trace/format.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "lina/net/crc32.hpp"

namespace lina::trace {
namespace {

TEST(TraceFormatTest, ZigzagRoundTrip) {
  const std::int64_t cases[] = {0,
                                1,
                                -1,
                                63,
                                -64,
                                1'000'000,
                                -1'000'000,
                                std::numeric_limits<std::int64_t>::max(),
                                std::numeric_limits<std::int64_t>::min()};
  for (const std::int64_t v : cases) {
    EXPECT_EQ(zigzag_decode(zigzag_encode(v)), v) << v;
  }
  // Small magnitudes stay small — the point of zigzag before varint.
  EXPECT_EQ(zigzag_encode(0), 0u);
  EXPECT_EQ(zigzag_encode(-1), 1u);
  EXPECT_EQ(zigzag_encode(1), 2u);
}

TEST(TraceFormatTest, VarintRoundTrip) {
  std::vector<char> buffer;
  const std::uint64_t cases[] = {0,
                                 1,
                                 127,
                                 128,
                                 16383,
                                 16384,
                                 (1ULL << 32) - 1,
                                 1ULL << 32,
                                 std::numeric_limits<std::uint64_t>::max()};
  for (const std::uint64_t v : cases) put_varint(buffer, v);
  ByteCursor cursor(buffer.data(), buffer.size(), "varint-test");
  for (const std::uint64_t v : cases) EXPECT_EQ(cursor.varint(), v);
  EXPECT_TRUE(cursor.done());
}

TEST(TraceFormatTest, PrimitivesRoundTripBitExact) {
  std::vector<char> buffer;
  put_u8(buffer, 0xAB);
  put_u16(buffer, 0xBEEF);
  put_u32(buffer, 0xDEADBEEFu);
  put_u64(buffer, 0x0123456789ABCDEFULL);
  const double doubles[] = {0.0, -0.0, 1.0 / 3.0, 5e-324, 1e308, 24.125};
  for (const double d : doubles) put_f64(buffer, d);
  ByteCursor cursor(buffer.data(), buffer.size(), "primitive-test");
  EXPECT_EQ(cursor.u8(), 0xAB);
  EXPECT_EQ(cursor.u16(), 0xBEEF);
  EXPECT_EQ(cursor.u32(), 0xDEADBEEFu);
  EXPECT_EQ(cursor.u64(), 0x0123456789ABCDEFULL);
  for (const double d : doubles) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(cursor.f64()),
              std::bit_cast<std::uint64_t>(d));
  }
  EXPECT_TRUE(cursor.done());
}

TEST(TraceFormatTest, Crc32MatchesKnownVector) {
  // The canonical IEEE 802.3 check value.
  EXPECT_EQ(net::crc32(0, "123456789", 9), 0xCBF43926u);
  // Incremental == one-shot.
  const std::uint32_t partial =
      net::crc32(net::crc32(0, "1234", 4), "56789", 5);
  EXPECT_EQ(partial, 0xCBF43926u);
}

TEST(TraceFormatTest, ByteCursorOverrunThrowsWithContext) {
  const char data[2] = {0, 0};
  ByteCursor cursor(data, sizeof data, "overrun-test");
  (void)cursor.u16();
  try {
    (void)cursor.u32();
    FAIL() << "expected TraceFormatError";
  } catch (const TraceFormatError& error) {
    EXPECT_NE(std::string(error.what()).find("overrun-test"),
              std::string::npos);
  }
}

TEST(TraceFormatTest, VarintRejectsPayloadAboveBit63) {
  // Nine continuation bytes put the 10th byte at bit 63: only its lowest
  // payload bit fits in 64 bits.
  std::vector<char> max(9, static_cast<char>(0xFF));
  max.push_back(0x01);
  ByteCursor fits(max.data(), max.size(), "varint-test");
  EXPECT_EQ(fits.varint(), std::numeric_limits<std::uint64_t>::max());

  for (const unsigned char last : {0x02, 0x7F, 0x81}) {
    std::vector<char> bytes(9, static_cast<char>(0x80));
    bytes.push_back(static_cast<char>(last));
    bytes.push_back(0);  // trailing room must not change the verdict
    ByteCursor cursor(bytes.data(), bytes.size(), "varint-test");
    try {
      (void)cursor.varint();
      FAIL() << "10th byte " << unsigned{last} << " must be rejected";
    } catch (const TraceFormatError& error) {
      EXPECT_NE(std::string(error.what()).find("varint longer than 64 bits"),
                std::string::npos)
          << error.what();
    }
  }
}

TEST(TraceFormatTest, SkipVarintsLandsWhereDecodingWould) {
  // Mixed widths (1 to 10 bytes) so terminators fall at every position of
  // a word, and skips end both inside the word loop and in the byte tail.
  std::vector<char> buffer;
  std::vector<std::size_t> ends;  // offset after each varint
  std::uint64_t v = 1;
  for (int i = 0; i < 200; ++i) {
    put_varint(buffer, i % 7 == 6 ? ~std::uint64_t{0} : v);
    ends.push_back(buffer.size());
    v = v * 131 + static_cast<std::uint64_t>(i);
  }
  for (std::size_t first = 0; first < 20; ++first) {
    for (std::size_t count = 0; first + count <= ends.size(); count += 3) {
      ByteCursor cursor(buffer.data(), buffer.size(), "skip-test");
      cursor.seek(first == 0 ? 0 : ends[first - 1]);
      cursor.skip_varints(count);
      const std::size_t want =
          first + count == 0 ? 0 : ends[first + count - 1];
      EXPECT_EQ(cursor.offset(), want) << first << " + " << count;
    }
  }
  ByteCursor cursor(buffer.data(), buffer.size(), "skip-test");
  EXPECT_THROW(cursor.skip_varints(ends.size() + 1), TraceFormatError);
}

ShardHeader sample_header() {
  ShardHeader header;
  header.seed = 7;
  header.shard_index = 2;
  header.shard_count = 5;
  header.first_user = 256;
  header.user_count = 128;
  header.day_count = 30;
  header.visit_count = 999;
  header.event_count = 999;
  header.events_offset = kHeaderBytes + 17;
  return header;
}

TEST(TraceFormatTest, HeaderRoundTrip) {
  std::vector<char> buffer;
  encode_header(buffer, sample_header());
  ASSERT_EQ(buffer.size(), kHeaderBytes);
  buffer.resize(kHeaderBytes + 17 + kFooterBytes);  // room for the offset
  const ShardHeader decoded =
      decode_header(buffer.data(), buffer.size(), "header-test");
  const ShardHeader expected = sample_header();
  EXPECT_EQ(decoded.version, kFormatVersion);
  EXPECT_EQ(decoded.seed, expected.seed);
  EXPECT_EQ(decoded.shard_index, expected.shard_index);
  EXPECT_EQ(decoded.shard_count, expected.shard_count);
  EXPECT_EQ(decoded.first_user, expected.first_user);
  EXPECT_EQ(decoded.user_count, expected.user_count);
  EXPECT_EQ(decoded.day_count, expected.day_count);
  EXPECT_EQ(decoded.visit_count, expected.visit_count);
  EXPECT_EQ(decoded.event_count, expected.event_count);
  EXPECT_EQ(decoded.events_offset, expected.events_offset);
}

TEST(TraceFormatTest, HeaderRejectsBadMagicVersionEndianness) {
  std::vector<char> good;
  encode_header(good, sample_header());
  good.resize(kHeaderBytes + 17 + kFooterBytes);

  std::vector<char> bad_magic = good;
  bad_magic[0] = 'X';
  EXPECT_THROW((void)decode_header(bad_magic.data(), bad_magic.size(), "t"),
               TraceFormatError);

  std::vector<char> bad_version = good;
  bad_version[4] = 99;
  EXPECT_THROW((void)decode_header(bad_version.data(), bad_version.size(), "t"),
               TraceFormatError);

  // A byte-swapped endianness marker reads as 0xFF00.
  std::vector<char> swapped = good;
  std::swap(swapped[6], swapped[7]);
  EXPECT_THROW((void)decode_header(swapped.data(), swapped.size(), "t"),
               TraceFormatError);

  EXPECT_THROW((void)decode_header(good.data(), kHeaderBytes - 1, "t"),
               TraceFormatError);
}

TEST(TraceFormatTest, EventPrecedesIsHourThenUser) {
  TraceEvent a, b;
  a.hour = 1.0;
  b.hour = 2.0;
  EXPECT_TRUE(event_precedes(a, b));
  EXPECT_FALSE(event_precedes(b, a));
  b.hour = 1.0;
  a.user = 3;
  b.user = 4;
  EXPECT_TRUE(event_precedes(a, b));
  EXPECT_FALSE(event_precedes(b, b));  // strict
}

}  // namespace
}  // namespace lina::trace
