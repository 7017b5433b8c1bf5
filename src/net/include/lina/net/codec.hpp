#pragma once

// The byte framing shared by lina::trace shards and lina::snap snapshots
// (DESIGN.md §4d, "Byte framing"):
//
//     [ magic | u16 version | u16 0x00FF | ... | footer magic | CRC32 | size ]
//
// Multi-byte integers are little-endian whatever the host; the endian
// marker reads 0xFF00 on a byte-swapped file. Varints are LEB128 with one
// overlong rule: a 10th byte above 0x01 is rejected. The 16-byte footer
// holds a magic, the CRC32 of every byte before it, and the total file
// size. Decoders throw the Error type they are instantiated with, so each
// format keeps its own named exception.

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

namespace lina::net {

using Magic = std::array<char, 4>;

/// Written as a u16; a byte-swapped read yields 0xFF00.
inline constexpr std::uint16_t kEndianMarker = 0x00FF;
inline constexpr std::size_t kFooterBytes = 16;

// --- encoders -------------------------------------------------------------

/// Raw little-endian encoders: write at `out`, return the end. The
/// caller guarantees the room (8 bytes for u64, 10 for a varint).
inline char* encode_u64(char* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) *out++ = static_cast<char>(v >> (8 * i));
  return out;
}

/// LEB128 (7 bits per byte, most-significant-bit continuation).
inline char* encode_varint(char* out, std::uint64_t v) {
  while (v >= 0x80) {
    *out++ = static_cast<char>(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  *out++ = static_cast<char>(v);
  return out;
}

/// Appending forms of the encoders for growable buffers; inline, because
/// the trace writer calls them several times per visit.
inline void put_u8(std::vector<char>& out, std::uint8_t v) {
  out.push_back(static_cast<char>(v));
}

inline void put_u16(std::vector<char>& out, std::uint16_t v) {
  const char bytes[2] = {static_cast<char>(v), static_cast<char>(v >> 8)};
  out.insert(out.end(), bytes, bytes + 2);
}

inline void put_u32(std::vector<char>& out, std::uint32_t v) {
  char bytes[8];
  encode_u64(bytes, v);
  out.insert(out.end(), bytes, bytes + 4);
}

inline void put_u64(std::vector<char>& out, std::uint64_t v) {
  char bytes[8];
  out.insert(out.end(), bytes, encode_u64(bytes, v));
}

inline void put_f64(std::vector<char>& out, double v) {
  put_u64(out, std::bit_cast<std::uint64_t>(v));
}

inline void put_varint(std::vector<char>& out, std::uint64_t v) {
  char bytes[10];
  out.insert(out.end(), bytes, encode_varint(bytes, v));
}

/// Appends the 8-byte prologue: `magic`, `version`, the endian marker.
void put_prologue(std::vector<char>& out, const Magic& magic,
                  std::uint16_t version);

/// Appends the 16-byte footer; `total_bytes` counts the footer itself.
void put_footer(std::vector<char>& out, const Magic& magic,
                std::uint32_t crc, std::uint64_t total_bytes);

// --- decoding -------------------------------------------------------------

namespace detail {
[[nodiscard]] std::string overrun_message(std::string_view context,
                                          const char* what,
                                          std::size_t offset,
                                          std::size_t size);
}  // namespace detail

/// Bounded sequential decoder over a byte range; every read is
/// bounds-checked and a failure throws Error naming `context`. The hot
/// reads (u8, u64/f64, a one-byte varint) are inline. `context` is
/// viewed, not copied, so a cursor costs no allocation: the string it
/// names must outlive the cursor.
template <class Error>
class ByteCursor {
 public:
  ByteCursor(const char* data, std::size_t size, std::string_view context)
      : data_(data), size_(size), context_(context) {}

  [[nodiscard]] std::size_t offset() const { return offset_; }
  [[nodiscard]] std::size_t remaining() const { return size_ - offset_; }
  [[nodiscard]] bool done() const { return offset_ == size_; }

  std::uint8_t u8() {
    if (offset_ == size_) overrun("u8");
    return static_cast<std::uint8_t>(data_[offset_++]);
  }
  std::uint16_t u16() { return static_cast<std::uint16_t>(fixed(2, "u16")); }
  std::uint32_t u32() { return static_cast<std::uint32_t>(fixed(4, "u32")); }
  std::uint64_t u64() { return fixed(8, "u64"); }
  double f64() { return std::bit_cast<double>(u64()); }
  std::uint64_t varint() {
    if (offset_ < size_ && (data_[offset_] & 0x80) == 0) {
      return static_cast<std::uint8_t>(data_[offset_++]);
    }
    return varint_multibyte();
  }
  void bytes(void* into, std::size_t n) {
    if (remaining() < n) overrun("bytes");
    std::copy_n(data_ + offset_, n, static_cast<char*>(into));
    offset_ += n;
  }

  /// Moves to `offset` bytes from the start of the range (<= its size).
  void seek(std::size_t offset) {
    if (offset > size_) overrun("seek target");
    offset_ = offset;
  }
  /// Steps over `n` bytes.
  void skip(std::size_t n) {
    if (remaining() < n) overrun("skipped bytes");
    offset_ += n;
  }
  /// Steps over `count` varints without decoding them: a varint ends at
  /// its first byte with the high bit clear, and those terminators are
  /// counted a word at a time. Overlong varints are not detected here.
  void skip_varints(std::size_t count);

  /// Throws Error("<context>: <message>").
  [[noreturn]] void fail(std::string_view message) const {
    throw Error(std::string(context_) + ": " + std::string(message));
  }

 private:
  [[noreturn]] void overrun(const char* what) const {
    throw Error(detail::overrun_message(context_, what, offset_, size_));
  }
  /// Reads an n-byte little-endian integer (n <= 8).
  std::uint64_t fixed(int n, const char* what) {
    if (remaining() < static_cast<std::size_t>(n)) overrun(what);
    std::uint64_t v = 0;
    for (int i = 0; i < n; ++i) {
      v |= static_cast<std::uint64_t>(
               static_cast<std::uint8_t>(data_[offset_ + i]))
           << (8 * i);
    }
    offset_ += static_cast<std::size_t>(n);
    return v;
  }
  std::uint64_t varint_multibyte();

  const char* data_;
  std::size_t size_;
  std::size_t offset_ = 0;
  std::string_view context_;
};

template <class Error>
std::uint64_t ByteCursor<Error>::varint_multibyte() {
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
  fail("varint longer than 64 bits at offset " + std::to_string(offset_));
}

template <class Error>
void ByteCursor<Error>::skip_varints(std::size_t count) {
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

/// Reads the prologue at the cursor and checks its magic, its version
/// and the endian marker. `kind` names the file kind in the messages.
template <class Error>
void check_prologue(ByteCursor<Error>& cursor, const Magic& magic,
                    std::uint16_t version, std::string_view kind) {
  Magic got{};
  cursor.bytes(got.data(), got.size());
  if (got != magic) cursor.fail("bad magic (not a " + std::string(kind) + ")");
  const std::uint16_t read = cursor.u16();
  if (read != version) {
    cursor.fail("unsupported format version " + std::to_string(read) +
                " (this build reads version " + std::to_string(version) +
                ")");
  }
  if (cursor.u16() != kEndianMarker) {
    cursor.fail("endianness marker mismatch (" + std::string(kind) +
                " written on an opposite-byte-order host?)");
  }
}

/// Checks the frame of a whole file of `size` bytes at `data`: room for
/// a `header_bytes` header and the footer, the footer `magic`, and the
/// recorded size. Returns the stored CRC, unverified.
template <class Error>
std::uint32_t decode_footer(const char* data, std::uint64_t size,
                            std::size_t header_bytes, const Magic& magic,
                            std::string_view context) {
  if (size < header_bytes + kFooterBytes) {
    throw Error(std::string(context) + ": file of " + std::to_string(size) +
                " bytes is shorter than header + footer");
  }
  ByteCursor<Error> cursor(data + (size - kFooterBytes), kFooterBytes,
                           context);
  Magic got{};
  cursor.bytes(got.data(), got.size());
  if (got != magic) {
    cursor.fail("footer magic missing (truncated or torn file)");
  }
  const std::uint32_t crc = cursor.u32();
  const std::uint64_t total_bytes = cursor.u64();
  if (total_bytes != size) {
    cursor.fail("footer records " + std::to_string(total_bytes) +
                " bytes but the file holds " + std::to_string(size) +
                " (truncated or concatenated file)");
  }
  return crc;
}

/// A read-only memory-mapped file. The mapping lives for the object's
/// lifetime; an empty file maps to a valid zero-length view. Reading a
/// page that a later truncation cut off raises SIGBUS, so a file must
/// not shrink while mapped; size checks against size() are enough for
/// a file that was truncated before it was opened.
class MappedFile {
 public:
  /// Maps `path`; a failed open, fstat or mmap throws Error naming the
  /// file and the call.
  template <class Error>
  [[nodiscard]] static MappedFile open(const std::filesystem::path& path) {
    MappedFile file;
    const std::string error = file.map(path);
    if (!error.empty()) throw Error(error);
    return file;
  }
  ~MappedFile();

  MappedFile(MappedFile&& other) noexcept;  // no assignment: one mapping

  [[nodiscard]] const char* data() const { return data_; }
  [[nodiscard]] std::uint64_t size() const { return size_; }

 private:
  MappedFile() = default;
  /// Maps `path` into this empty object; the error message, or "".
  std::string map(const std::filesystem::path& path);

  const char* data_ = nullptr;
  std::uint64_t size_ = 0;
};

}  // namespace lina::net
