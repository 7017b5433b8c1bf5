#include "lina/net/crc32.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>

namespace lina::net {
namespace {

/// One bit at a time, straight from the polynomial: the reference the
/// table-driven implementation must agree with.
std::uint32_t bitwise_crc32(std::uint32_t crc, const unsigned char* data,
                            std::size_t size) {
  crc = ~crc;
  for (std::size_t i = 0; i < size; ++i) {
    crc ^= data[i];
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1u) != 0 ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
    }
  }
  return ~crc;
}

/// Varied bytes: room for a 64-byte run at each of 8 start alignments,
/// with a length that is not a multiple of the 8-byte slice.
std::array<unsigned char, 79> sample_bytes() {
  std::array<unsigned char, 79> bytes{};
  std::uint32_t x = 0x12345678u;
  for (unsigned char& b : bytes) {
    x = x * 1664525u + 1013904223u;
    b = static_cast<unsigned char>(x >> 24);
  }
  return bytes;
}

TEST(Crc32Test, CheckValue) {
  EXPECT_EQ(crc32(0, "123456789", 9), 0xCBF43926u);
  EXPECT_EQ(crc32(0, nullptr, 0), 0u);
}

TEST(Crc32Test, MatchesBitwiseReferenceAtEveryLengthAndAlignment) {
  const auto bytes = sample_bytes();
  for (std::size_t align = 0; align < 8; ++align) {
    for (std::size_t length = 0; length <= 64; ++length) {
      const unsigned char* start = bytes.data() + align;
      EXPECT_EQ(crc32(0, start, length), bitwise_crc32(0, start, length))
          << "align " << align << " length " << length;
    }
  }
}

TEST(Crc32Test, ChainedCallsEqualOneShot) {
  const auto bytes = sample_bytes();
  const std::uint32_t whole = crc32(0, bytes.data(), bytes.size());
  for (std::size_t cut = 0; cut <= bytes.size(); ++cut) {
    const std::uint32_t head = crc32(0, bytes.data(), cut);
    EXPECT_EQ(crc32(head, bytes.data() + cut, bytes.size() - cut), whole)
        << "cut " << cut;
  }
  // Three pieces, each shorter than a slice.
  std::uint32_t crc = 0;
  for (std::size_t at = 0; at < bytes.size(); at += 3) {
    crc = crc32(crc, bytes.data() + at,
                std::min<std::size_t>(3, bytes.size() - at));
  }
  EXPECT_EQ(crc, whole);
  EXPECT_EQ(whole, bitwise_crc32(0, bytes.data(), bytes.size()));
}

}  // namespace
}  // namespace lina::net
