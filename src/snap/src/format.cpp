#include "lina/snap/format.hpp"

#include <cstring>

namespace lina::snap {

void put_u8(std::vector<char>& out, std::uint8_t v) {
  out.push_back(static_cast<char>(v));
}

void put_u16(std::vector<char>& out, std::uint16_t v) {
  put_u8(out, static_cast<std::uint8_t>(v));
  put_u8(out, static_cast<std::uint8_t>(v >> 8));
}

void put_u32(std::vector<char>& out, std::uint32_t v) {
  put_u16(out, static_cast<std::uint16_t>(v));
  put_u16(out, static_cast<std::uint16_t>(v >> 16));
}

void put_u64(std::vector<char>& out, std::uint64_t v) {
  put_u32(out, static_cast<std::uint32_t>(v));
  put_u32(out, static_cast<std::uint32_t>(v >> 32));
}

void put_varint(std::vector<char>& out, std::uint64_t v) {
  while (v >= 0x80) {
    put_u8(out, static_cast<std::uint8_t>(v) | 0x80u);
    v >>= 7;
  }
  put_u8(out, static_cast<std::uint8_t>(v));
}

std::uint8_t ByteCursor::u8() {
  if (remaining() < 1) overrun("u8");
  return static_cast<std::uint8_t>(data_[offset_++]);
}

std::uint16_t ByteCursor::u16() {
  const std::uint16_t lo = u8();
  return static_cast<std::uint16_t>(lo | (std::uint16_t{u8()} << 8));
}

std::uint32_t ByteCursor::u32() {
  const std::uint32_t lo = u16();
  return lo | (std::uint32_t{u16()} << 16);
}

std::uint64_t ByteCursor::u64() {
  const std::uint64_t lo = u32();
  return lo | (std::uint64_t{u32()} << 32);
}

std::uint64_t ByteCursor::varint() {
  std::uint64_t value = 0;
  unsigned shift = 0;
  while (true) {
    const std::uint8_t byte = u8();
    // 64 bits = nine 7-bit groups plus one final bit; anything longer
    // (or wider in the last group) cannot be a canonical encoding.
    if (shift > 63 || (shift == 63 && (byte & 0x7eu) != 0))
      overrun("varint (overlong)");
    value |= std::uint64_t{byte & 0x7fu} << shift;
    if ((byte & 0x80u) == 0) return value;
    shift += 7;
  }
}

void ByteCursor::bytes(void* into, std::size_t n) {
  if (remaining() < n) overrun("bytes");
  std::memcpy(into, data_ + offset_, n);
  offset_ += n;
}

void ByteCursor::overrun(const char* what) const {
  throw SnapFormatError(context_ + ": truncated while reading " + what +
                        " at offset " + std::to_string(offset_) + " of " +
                        std::to_string(size_));
}

void BitWriter::bits(std::uint32_t value, unsigned count) {
  for (unsigned i = count; i > 0; --i) {
    pending_ = static_cast<std::uint8_t>(
        (pending_ << 1) | ((value >> (i - 1)) & 1u));
    if (++pending_bits_ == 8) {
      bytes_.push_back(static_cast<char>(pending_));
      pending_ = 0;
      pending_bits_ = 0;
    }
  }
}

void BitWriter::varint(std::uint64_t v) {
  while (v >= 0x80) {
    bit(true);
    bits(static_cast<std::uint32_t>(v & 0x7fu), 7);
    v >>= 7;
  }
  bit(false);
  bits(static_cast<std::uint32_t>(v), 7);
}

std::vector<char> BitWriter::finish() {
  if (pending_bits_ > 0) {
    bytes_.push_back(
        static_cast<char>(pending_ << (8 - pending_bits_)));
    pending_ = 0;
    pending_bits_ = 0;
  }
  return std::move(bytes_);
}

std::uint32_t BitReader::bits(unsigned count) {
  std::uint32_t value = 0;
  for (unsigned i = 0; i < count; ++i) {
    const std::size_t byte = bit_offset_ >> 3;
    if (byte >= size_) {
      throw SnapFormatError(context_ + ": truncated bit stream at bit " +
                            std::to_string(bit_offset_));
    }
    const unsigned shift = 7u - (bit_offset_ & 7u);
    value = (value << 1) |
            ((static_cast<std::uint8_t>(data_[byte]) >> shift) & 1u);
    ++bit_offset_;
  }
  return value;
}

std::uint64_t BitReader::varint() {
  std::uint64_t value = 0;
  unsigned shift = 0;
  while (true) {
    const bool more = bit();
    const std::uint64_t group = bits(7);
    if (shift > 63 || (shift == 63 && (group >> 1) != 0)) {
      throw SnapFormatError(context_ + ": overlong bit-varint");
    }
    value |= group << shift;
    if (!more) return value;
    shift += 7;
  }
}

void encode_header(std::vector<char>& out, const SnapHeader& header) {
  const std::size_t start = out.size();
  out.insert(out.end(), kSnapMagic.begin(), kSnapMagic.end());
  put_u16(out, header.version);
  put_u16(out, kSnapEndianMarker);
  put_u16(out, static_cast<std::uint16_t>(header.kind));
  put_u16(out, header.section_count);
  put_u64(out, header.entry_count);
  put_u64(out, header.node_count);
  put_u64(out, header.generation);
  while (out.size() - start < kSnapHeaderBytes) put_u8(out, 0);
}

SnapHeader decode_header(const char* data, std::uint64_t file_size,
                         const std::string& context) {
  if (file_size < kSnapHeaderBytes + kSnapFooterBytes) {
    throw SnapFormatError(context + ": file of " + std::to_string(file_size) +
                          " bytes is shorter than header + footer");
  }
  ByteCursor cursor(data, kSnapHeaderBytes, context);
  std::array<char, 4> magic{};
  cursor.bytes(magic.data(), magic.size());
  if (magic != kSnapMagic) {
    throw SnapFormatError(context + ": bad magic (not a lina::snap file)");
  }
  SnapHeader header;
  header.version = cursor.u16();
  if (header.version != kSnapFormatVersion) {
    throw SnapFormatError(context + ": unsupported format version " +
                          std::to_string(header.version) + " (this build reads " +
                          std::to_string(kSnapFormatVersion) + ")");
  }
  const std::uint16_t endian = cursor.u16();
  if (endian != kSnapEndianMarker) {
    throw SnapFormatError(
        context + ": endianness marker mismatch (file written byte-swapped?)");
  }
  const std::uint16_t kind = cursor.u16();
  if (kind != static_cast<std::uint16_t>(SnapKind::kIpFib) &&
      kind != static_cast<std::uint16_t>(SnapKind::kNameFib)) {
    throw SnapFormatError(context + ": unknown snapshot kind " +
                          std::to_string(kind));
  }
  header.kind = static_cast<SnapKind>(kind);
  header.section_count = cursor.u16();
  header.entry_count = cursor.u64();
  header.node_count = cursor.u64();
  header.generation = cursor.u64();
  const std::uint64_t table_end =
      kSnapHeaderBytes +
      std::uint64_t{header.section_count} * kSectionRecordBytes + 4;
  if (table_end + kSnapFooterBytes > file_size) {
    throw SnapFormatError(context + ": section table (" +
                          std::to_string(header.section_count) +
                          " sections) does not fit in a " +
                          std::to_string(file_size) + "-byte file");
  }
  return header;
}

}  // namespace lina::snap
