#include "lina/snap/format.hpp"

#include <algorithm>

namespace lina::snap {

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
  net::put_prologue(out, kSnapMagic, header.version);
  net::put_u16(out, static_cast<std::uint16_t>(header.kind));
  net::put_u16(out, header.section_count);
  net::put_u64(out, header.entry_count);
  net::put_u64(out, header.node_count);
  net::put_u64(out, header.generation);
  out.resize(start + kSnapHeaderBytes, 0);
}

SnapHeader decode_header(const char* data, std::uint64_t file_size,
                         const std::string& context) {
  // A file too short for the header fails in the cursor, as truncated.
  ByteCursor cursor(data, std::min<std::uint64_t>(file_size, kSnapHeaderBytes),
                    context);
  net::check_prologue(cursor, kSnapMagic, kSnapFormatVersion,
                      "lina::snap file");
  SnapHeader header;
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
