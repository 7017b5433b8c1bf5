#include "lina/trace/format.hpp"

#include <bit>
#include <cstring>

namespace lina::trace {

void ByteCursor::overrun(const char* what) const {
  throw TraceFormatError(std::string(context_) + ": truncated while reading " +
                         what + " at offset " + std::to_string(offset_));
}

std::uint16_t ByteCursor::u16() {
  if (remaining() < 2) overrun("u16");
  std::uint16_t v = 0;
  for (int i = 0; i < 2; ++i) {
    v |= static_cast<std::uint16_t>(
        static_cast<std::uint8_t>(data_[offset_ + i]) << (8 * i));
  }
  offset_ += 2;
  return v;
}

std::uint32_t ByteCursor::u32() {
  if (remaining() < 4) overrun("u32");
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(
             static_cast<std::uint8_t>(data_[offset_ + i]))
         << (8 * i);
  }
  offset_ += 4;
  return v;
}

std::uint64_t ByteCursor::varint_multibyte() {
  // A varint is at most 10 bytes: with that many left, no byte needs its
  // own bounds check.
  const bool checked = remaining() < 10;
  std::uint64_t v = 0;
  for (unsigned shift = 0; shift < 64; shift += 7) {
    if (checked && offset_ == size_) overrun("varint");
    const auto byte = static_cast<std::uint8_t>(data_[offset_++]);
    // The 10th byte carries bit 63 only; payload above it would be
    // shifted out silently.
    if (shift == 63 && byte > 1) break;
    v |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) return v;
  }
  throw TraceFormatError(std::string(context_) +
                         ": varint longer than 64 bits at offset " +
                         std::to_string(offset_));
}

void ByteCursor::skip_varints(std::size_t count) {
  constexpr std::uint64_t kHighBits = 0x8080808080808080ULL;
  while (count > 0 && remaining() >= 8) {
    std::uint64_t word;
    std::memcpy(&word, data_ + offset_, 8);
    if constexpr (std::endian::native == std::endian::big) {
      word = __builtin_bswap64(word);  // byte i in bits 8i..8i+7
    }
    std::uint64_t ends = ~word & kHighBits;
    const auto found = static_cast<std::size_t>(std::popcount(ends));
    if (found < count) {
      count -= found;
      offset_ += 8;
      continue;
    }
    // The last terminator wanted lies in this word: drop the ones before.
    for (; count > 1; --count) ends &= ends - 1;
    offset_ += static_cast<std::size_t>(std::countr_zero(ends)) / 8 + 1;
    return;
  }
  for (; count > 0; --count) {
    do {
      if (offset_ == size_) overrun("varint");
    } while ((data_[offset_++] & 0x80) != 0);
  }
}

void ByteCursor::bytes(void* into, std::size_t n) {
  if (remaining() < n) overrun("bytes");
  auto* out = static_cast<char*>(into);
  for (std::size_t i = 0; i < n; ++i) out[i] = data_[offset_ + i];
  offset_ += n;
}

void encode_header(std::vector<char>& out, const ShardHeader& header) {
  const std::size_t base = out.size();
  out.insert(out.end(), kShardMagic.begin(), kShardMagic.end());
  put_u16(out, header.version);
  put_u16(out, kEndianMarker);
  put_u64(out, header.seed);
  put_u32(out, header.shard_index);
  put_u32(out, header.shard_count);
  put_u32(out, header.first_user);
  put_u32(out, header.user_count);
  put_u32(out, header.day_count);
  put_u32(out, 0);  // reserved
  put_u64(out, header.visit_count);
  put_u64(out, header.event_count);
  put_u64(out, header.events_offset);
  if (out.size() - base != kHeaderBytes) {
    throw std::logic_error("encode_header: layout drifted from kHeaderBytes");
  }
}

ShardHeader decode_header(const char* data, std::size_t size,
                          const std::string& context) {
  if (size < kHeaderBytes) {
    throw TraceFormatError(context + ": file shorter than a shard header (" +
                           std::to_string(size) + " bytes)");
  }
  ByteCursor cursor(data, kHeaderBytes, context);
  std::array<char, 4> magic{};
  cursor.bytes(magic.data(), magic.size());
  if (magic != kShardMagic) {
    throw TraceFormatError(context + ": bad magic (not a lina::trace shard)");
  }
  ShardHeader header;
  header.version = cursor.u16();
  if (header.version != kFormatVersion) {
    throw TraceFormatError(context + ": unsupported format version " +
                           std::to_string(header.version) + " (this build " +
                           "reads version " + std::to_string(kFormatVersion) +
                           ")");
  }
  const std::uint16_t endian = cursor.u16();
  if (endian != kEndianMarker) {
    throw TraceFormatError(context +
                           ": endianness marker mismatch (shard written on "
                           "an incompatible-byte-order host?)");
  }
  header.seed = cursor.u64();
  header.shard_index = cursor.u32();
  header.shard_count = cursor.u32();
  header.first_user = cursor.u32();
  header.user_count = cursor.u32();
  header.day_count = cursor.u32();
  (void)cursor.u32();  // reserved
  header.visit_count = cursor.u64();
  header.event_count = cursor.u64();
  header.events_offset = cursor.u64();
  if (header.events_offset < kHeaderBytes ||
      header.events_offset + kFooterBytes > size) {
    throw TraceFormatError(context + ": event-section offset " +
                           std::to_string(header.events_offset) +
                           " out of range for a " + std::to_string(size) +
                           "-byte file");
  }
  return header;
}

}  // namespace lina::trace
