#pragma once

// Crash-safe publication for the snapshot store: temp file + fsync +
// rename + directory fsync. Loads map files through net::MappedFile
// (lina/net/codec.hpp). All failures, real or injected via a FaultPlan,
// surface as SnapIoError naming the file and the operation.

#include <filesystem>
#include <vector>

#include "lina/snap/fault.hpp"
#include "lina/snap/format.hpp"

namespace lina::snap {

/// Durably publishes `image` at `path`: writes `path`'s sibling temp
/// file, fsyncs it, atomically renames it over `path`, and fsyncs the
/// containing directory so the rename itself is durable. Readers
/// therefore observe either the complete previous file or the complete
/// new one — never a partial write. `faults` (optional) injects the
/// write-side failure modes; post-commit corruptions are applied to the
/// final file after a successful publish.
void atomic_write_file(const std::filesystem::path& path,
                       const std::vector<char>& image,
                       const FaultPlan* faults = nullptr);

}  // namespace lina::snap
