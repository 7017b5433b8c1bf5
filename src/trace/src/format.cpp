#include "lina/trace/format.hpp"

namespace lina::trace {

void encode_header(std::vector<char>& out, const ShardHeader& header) {
  const std::size_t base = out.size();
  net::put_prologue(out, kShardMagic, header.version);
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
  net::check_prologue(cursor, kShardMagic, kFormatVersion,
                      "lina::trace shard");
  ShardHeader header;
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
      header.events_offset > size - kFooterBytes) {
    throw TraceFormatError(context + ": event-section offset " +
                           std::to_string(header.events_offset) +
                           " out of range for a " + std::to_string(size) +
                           "-byte file");
  }
  return header;
}

}  // namespace lina::trace
