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

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "lina/net/codec.hpp"
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

inline constexpr net::Magic kShardMagic = {'L', 'T', 'R', 'C'};
inline constexpr net::Magic kFooterMagic = {'L', 'T', 'R', 'E'};
inline constexpr std::uint16_t kFormatVersion = 1;

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
inline constexpr std::size_t kFooterBytes = net::kFooterBytes;

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

// The shared byte codec (lina/net/codec.hpp), under the names the trace
// code and its tests use.
using net::encode_u64;
using net::encode_varint;
using net::put_f64;
using net::put_u16;
using net::put_u32;
using net::put_u64;
using net::put_u8;
using net::put_varint;
using ByteCursor = net::ByteCursor<TraceFormatError>;

/// Serializes the header into exactly kHeaderBytes.
void encode_header(std::vector<char>& out, const ShardHeader& header);

/// Parses and validates a header (magic, version, endianness, size
/// sanity). `context` names the file for error messages.
[[nodiscard]] ShardHeader decode_header(const char* data, std::size_t size,
                                        const std::string& context);

}  // namespace lina::trace
