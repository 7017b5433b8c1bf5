#pragma once

// On-disk layout of the lina::trace sharded binary device-trace store
// (DESIGN.md §4d).
//
// A trace set is a directory of shard files, each covering a contiguous
// user-id range. Every shard is
//
//     [ ShardHeader | user blocks | event section | ShardFooter ]
//
// with all multi-byte integers little-endian on disk regardless of host
// byte order (the header carries an endianness marker so a big-endian
// writer bug cannot masquerade as data). Doubles are stored as the
// little-endian bytes of their IEEE-754 bit pattern, so replay is
// bit-exact.
//
// User blocks are columnar: per user, a small block header followed by one
// column per field (durations, address deltas, prefix lengths, AS deltas,
// cellular bitmap). Timestamps are delta-encoded — visits are contiguous,
// so only the first start hour and the duration column are stored and
// start hours are rebuilt by the exact same floating-point accumulation
// the generator performed (bit-identical; a flag covers the rare
// not-exactly-contiguous trace by storing explicit starts). IP addresses
// and AS ids are zigzag-varint deltas; prefixes compress to one length
// byte because an announced prefix is its address under the mask.
//
// The event section repeats every attachment (visit start) as a flat
// record stream sorted by (hour, user id) — the k-way-merge unit of
// TraceCursor. The footer carries a CRC32 over everything before it, so
// truncation and corruption surface as a clear TraceFormatError instead
// of garbage statistics.

#include <array>
#include <bit>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "lina/net/ipv4.hpp"
#include "lina/topology/as_graph.hpp"

namespace lina::trace {

/// Any structural problem with a shard file: bad magic, unsupported
/// version, truncation, CRC mismatch, out-of-range counts. The message
/// always names the file and the check that failed.
class TraceFormatError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

inline constexpr std::array<char, 4> kShardMagic = {'L', 'T', 'R', 'C'};
inline constexpr std::array<char, 4> kFooterMagic = {'L', 'T', 'R', 'E'};
inline constexpr std::uint16_t kFormatVersion = 1;
/// Written as a u16; a same-width byte-swapped read yields 0xFF00 and is
/// rejected with an endianness-specific error message.
inline constexpr std::uint16_t kEndianMarker = 0x00FF;

/// Fixed-size (64-byte) shard header.
struct ShardHeader {
  std::uint16_t version = kFormatVersion;
  std::uint64_t seed = 0;        // workload seed the shard was drawn from
  std::uint32_t shard_index = 0;
  std::uint32_t shard_count = 0;
  std::uint32_t first_user = 0;  // lowest user id in the shard
  std::uint32_t user_count = 0;  // users stored in the shard
  std::uint32_t day_count = 0;   // trace length shared by every user
  std::uint64_t visit_count = 0;   // total visits across the shard's users
  std::uint64_t event_count = 0;   // records in the event section
  std::uint64_t events_offset = 0; // byte offset of the event section
};

inline constexpr std::size_t kHeaderBytes = 64;
inline constexpr std::size_t kFooterBytes = 16;

/// Per-user block flag: starts stored explicitly because the trace was not
/// exactly contiguous (start[i] != start[i-1] + duration[i-1] bitwise).
inline constexpr std::uint8_t kBlockExplicitStarts = 0x01;

/// One attachment record of the merged event stream: user `user` attached
/// to `address` (inside `prefix`, announced by `as`) at `hour` and stayed
/// until its next event.
struct TraceEvent {
  double hour = 0.0;
  std::uint32_t user = 0;
  net::Ipv4Address address;
  net::Prefix prefix;
  topology::AsId as = 0;
  bool cellular = false;
  bool initial = false;  // the user's first attachment (hour 0)

  friend bool operator==(const TraceEvent&, const TraceEvent&) = default;
};

/// Strict total order of the merged stream: (hour, user). Unique per
/// event — a user's visit starts are strictly increasing and user ids are
/// disjoint across shards — so replay order is independent of sharding.
inline bool event_precedes(const TraceEvent& a, const TraceEvent& b) {
  if (a.hour != b.hour) return a.hour < b.hour;
  return a.user < b.user;
}

// --- primitive encoding ---------------------------------------------------

inline constexpr std::uint64_t zigzag_encode(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

inline constexpr std::int64_t zigzag_decode(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^
         -static_cast<std::int64_t>(v & 1);
}

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

/// Appending forms of the encoders for the writer's growable buffers;
/// inline, because the writer calls them several times per visit.
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

/// Bounded sequential decoder over a byte range; every read is
/// bounds-checked and overruns throw TraceFormatError naming `context`.
/// The hot reads (u8, u64/f64, a one-byte varint) are inline. `context`
/// is viewed, not copied, so a cursor costs no allocation: the string it
/// names must outlive the cursor.
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
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64() {
    if (remaining() < 8) overrun("u64");
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(
               static_cast<std::uint8_t>(data_[offset_ + i]))
           << (8 * i);
    }
    offset_ += 8;
    return v;
  }
  double f64() { return std::bit_cast<double>(u64()); }
  std::uint64_t varint() {
    if (offset_ < size_ && (data_[offset_] & 0x80) == 0) {
      return static_cast<std::uint8_t>(data_[offset_++]);
    }
    return varint_multibyte();
  }
  void bytes(void* into, std::size_t n);

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

 private:
  [[noreturn]] void overrun(const char* what) const;
  std::uint64_t varint_multibyte();

  const char* data_;
  std::size_t size_;
  std::size_t offset_ = 0;
  std::string_view context_;
};

/// Serializes the header into exactly kHeaderBytes.
void encode_header(std::vector<char>& out, const ShardHeader& header);

/// Parses and validates a header (magic, version, endianness, size
/// sanity). `context` names the file for error messages.
[[nodiscard]] ShardHeader decode_header(const char* data, std::size_t size,
                                        const std::string& context);

}  // namespace lina::trace
