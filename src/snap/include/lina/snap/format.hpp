#pragma once

// On-disk layout of the lina::snap durable FIB snapshot store
// (DESIGN.md §4f).
//
// A snapshot file holds one forwarding table (a frozen IP FIB or a name
// FIB):
//
//     [ FileHeader | section table | toc CRC | section payloads | Footer ]
//
// in the byte framing the lina::trace shards use too (prologue,
// little-endian integers, LEB128 varints, CRC32 footer; see
// lina/net/codec.hpp). Every section carries its own CRC32 in the table
// and the footer carries a whole-file CRC32 plus the total size, so any
// truncation, torn write, or flipped bit surfaces as a named
// SnapFormatError — never undefined behaviour, never a silently wrong
// lookup.
//
// Node arrays are bit-packed (6-bit prefix lengths, 1-bit child/value
// flags, key bits only up to the prefix length) and pointers/ids are
// varint-coded deltas, so a snapshot is substantially smaller than the
// in-memory table it round-trips.

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "lina/net/codec.hpp"

namespace lina::snap {

/// Any structural problem with a snapshot file: bad magic, unsupported
/// version, wrong endianness, truncation, CRC mismatch, out-of-range
/// counts, inconsistent manifest. The message always names the file and
/// the check that failed. Catching this (and falling back to a rebuild)
/// is the whole-load-path contract — see load_or_rebuild.
class SnapFormatError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// An I/O failure while writing or mapping a snapshot (short write /
/// ENOSPC, failed fsync, failed rename, mmap failure) — injected faults
/// included. Derives from SnapFormatError so one catch handles the whole
/// durability surface.
class SnapIoError : public SnapFormatError {
 public:
  using SnapFormatError::SnapFormatError;
};

inline constexpr net::Magic kSnapMagic = {'L', 'S', 'N', 'P'};
inline constexpr net::Magic kSnapFooterMagic = {'L', 'S', 'N', 'E'};
inline constexpr net::Magic kManifestMagic = {'L', 'S', 'N', 'M'};
inline constexpr std::uint16_t kSnapFormatVersion = 1;

/// What a snapshot file stores (header `kind` field).
enum class SnapKind : std::uint16_t {
  kIpFib = 1,    // FrozenIpTrie<routing::FibEntry>
  kNameFib = 2,  // NameTrie<routing::Port> + its component table
};

/// Section ids (section-table `id` field).
enum class SectionId : std::uint32_t {
  kIpNodes = 1,     // bit-packed preorder Patricia nodes
  kIpValues = 2,    // FibEntry payloads in value-slot order
  kComponents = 16, // name-component spellings, local-id order
  kNameEdges = 17,  // (parent, local-label) -> child, delta-varint coded
  kNameValues = 18, // node-id-indexed optional ports
};

/// Fixed-size (48-byte) snapshot file header.
struct SnapHeader {
  std::uint16_t version = kSnapFormatVersion;
  SnapKind kind = SnapKind::kIpFib;
  std::uint16_t section_count = 0;
  std::uint64_t entry_count = 0;  // stored routable entries
  std::uint64_t node_count = 0;   // trie nodes (IP) / arena slots (names)
  std::uint64_t generation = 0;   // manifest generation that committed it
};

/// One record of the section table: where a section's payload lives and
/// the CRC32 it must hash to.
struct SectionRecord {
  SectionId id = SectionId::kIpNodes;
  std::uint64_t offset = 0;  // absolute byte offset of the payload
  std::uint64_t bytes = 0;   // payload length
  std::uint32_t crc = 0;     // CRC32 of exactly [offset, offset + bytes)
};

inline constexpr std::size_t kSnapHeaderBytes = 48;
inline constexpr std::size_t kSectionRecordBytes = 24;
inline constexpr std::size_t kSnapFooterBytes = net::kFooterBytes;

/// The shared byte decoder (lina/net/codec.hpp), throwing SnapFormatError.
using ByteCursor = net::ByteCursor<SnapFormatError>;

// --- bit-level encoding ---------------------------------------------------

/// MSB-first bit packer over a byte vector — the packing layer behind the
/// node sections (cf. the LINNE bit_stream idiom). `finish()` pads the
/// final partial byte with zeros.
class BitWriter {
 public:
  /// Appends the low `count` bits of `value`, most significant first.
  void bits(std::uint32_t value, unsigned count);
  void bit(bool value) { bits(value ? 1u : 0u, 1); }
  /// Bit-level LEB128: 8-bit groups of {continuation, 7 value bits}.
  void varint(std::uint64_t v);
  /// Pads to a byte boundary and returns the packed bytes.
  [[nodiscard]] std::vector<char> finish();

 private:
  std::vector<char> bytes_;
  std::uint8_t pending_ = 0;
  unsigned pending_bits_ = 0;
};

/// MSB-first bit reader mirroring BitWriter; overruns throw
/// SnapFormatError naming `context`.
class BitReader {
 public:
  BitReader(const char* data, std::size_t size, std::string context)
      : data_(data), size_(size), context_(std::move(context)) {}

  [[nodiscard]] std::uint32_t bits(unsigned count);
  [[nodiscard]] bool bit() { return bits(1) != 0; }
  [[nodiscard]] std::uint64_t varint();

 private:
  const char* data_;
  std::size_t size_;
  std::size_t bit_offset_ = 0;
  std::string context_;
};

/// Serializes the header into exactly kSnapHeaderBytes.
void encode_header(std::vector<char>& out, const SnapHeader& header);

/// Parses and validates a header (magic, version, endianness, kind, and
/// a section table that fits in `file_size`). `context` names the file
/// for errors.
[[nodiscard]] SnapHeader decode_header(const char* data,
                                       std::uint64_t file_size,
                                       const std::string& context);

}  // namespace lina::snap
