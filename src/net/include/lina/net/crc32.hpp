#pragma once

#include <cstddef>
#include <cstdint>

namespace lina::net {

/// CRC-32 (IEEE 802.3, reflected, poly 0xEDB88320): the checksum of
/// lina::trace shard footers and lina::snap sections. Chainable —
/// crc32(crc32(0, a), b) is the CRC of a followed by b — so a writer can
/// checksum a file section by section as it streams it out. Slice-by-8:
/// eight table lookups per 8-byte word.
[[nodiscard]] std::uint32_t crc32(std::uint32_t crc, const void* data,
                                  std::size_t size);

}  // namespace lina::net
