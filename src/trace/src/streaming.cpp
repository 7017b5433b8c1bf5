#include "lina/trace/streaming.hpp"

#include <cstdio>
#include <stdexcept>

#include "lina/exec/parallel.hpp"
#include "lina/prof/prof.hpp"

namespace lina::trace {

std::filesystem::path shard_file_name(std::uint32_t index) {
  char name[32];
  std::snprintf(name, sizeof(name), "shard-%05u.ltrc", index);
  return {name};
}

ShardSet StreamingWorkload::write_shards(
    const std::filesystem::path& dir) const {
  PROF_SPAN("lina.trace.write_shards");
  const mobility::DeviceWorkloadConfig& workload = generator_.config();
  if (workload.user_count == 0) {
    throw std::invalid_argument("StreamingWorkload: empty workload");
  }
  const std::size_t per_shard = std::max<std::size_t>(
      1, std::min(config_.users_per_shard, workload.user_count));
  const std::size_t shard_count =
      (workload.user_count + per_shard - 1) / per_shard;

  std::filesystem::create_directories(dir);
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".ltrc") {
      throw TraceFormatError(dir.string() +
                             ": already holds .ltrc shards — refusing to "
                             "mix trace sets (use a fresh directory)");
    }
  }

  // Shards are independent: shard s is a pure function of the workload
  // config and its user-id range (each user draws from its own
  // seed-labelled substream), so the fan-out is bit-identical at any
  // thread count. Per-shard staging memory is the bound threads multiply.
  exec::parallel_for(shard_count, [&](std::size_t s) {
    const std::uint32_t first =
        static_cast<std::uint32_t>(s * per_shard);
    const std::uint32_t count = static_cast<std::uint32_t>(
        std::min(per_shard, workload.user_count - first));
    ShardMeta meta;
    meta.seed = workload.seed;
    meta.shard_index = static_cast<std::uint32_t>(s);
    meta.shard_count = static_cast<std::uint32_t>(shard_count);
    meta.first_user = first;
    meta.user_count = count;
    meta.day_count = static_cast<std::uint32_t>(workload.days);
    TraceWriter writer(dir / shard_file_name(meta.shard_index), meta);
    for (std::uint32_t u = 0; u < count; ++u) {
      writer.append(generator_.generate_user(first + u));
    }
    writer.finish();
  });

  return ShardSet::discover(
      dir, config_.verify_after_write ? Validate::kCrc : Validate::kHeader);
}

DeviceTraceStream::DeviceTraceStream(const ShardSet& set) : set_(&set) {}

DeviceTraceStream::DeviceTraceStream(const ShardSet& set,
                                     std::size_t first_index)
    : set_(&set), next_index_(first_index) {
  std::size_t shard_first = 0;
  while (shard_ < set.shards().size() &&
         shard_first + set.shards()[shard_].header.user_count <=
             first_index) {
    shard_first += set.shards()[shard_].header.user_count;
    ++shard_;
  }
  if (shard_ < set.shards().size()) skip_ = first_index - shard_first;
}

bool DeviceTraceStream::done() const {
  return reader_ == nullptr && shard_ == set_->shards().size();
}

bool DeviceTraceStream::open_reader() {
  if (reader_ != nullptr) return true;
  if (shard_ == set_->shards().size()) return false;
  reader_ = std::make_unique<TraceReader>(set_->shards()[shard_]);
  for (; skip_ > 0; --skip_) (void)reader_->next();
  return true;
}

std::optional<mobility::DeviceTrace> DeviceTraceStream::next() {
  while (open_reader()) {
    std::optional<mobility::DeviceTrace> trace = reader_->next();
    if (trace.has_value()) {
      ++next_index_;
      return trace;
    }
    reader_.reset();
    ++shard_;
  }
  return std::nullopt;
}

std::vector<mobility::DeviceTrace> DeviceTraceStream::next_batch(
    std::size_t max_users) {
  if (max_users == 0) {
    // An empty batch would never reach done(): callers would spin.
    throw std::invalid_argument(
        "DeviceTraceStream::next_batch: max_users must be positive");
  }
  std::vector<mobility::DeviceTrace> batch;
  batch.reserve(max_users);
  while (batch.size() < max_users && open_reader()) {
    const std::size_t got =
        reader_->next_batch(max_users - batch.size(), batch);
    next_index_ += got;
    if (got == 0) {
      reader_.reset();
      ++shard_;
    }
  }
  return batch;
}

}  // namespace lina::trace
