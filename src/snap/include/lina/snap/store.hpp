#pragma once

// The durable FIB snapshot store (DESIGN.md §4f).
//
// A store is a directory holding one generation-numbered manifest
// (MANIFEST.lsnp) plus one snapshot file per saved table
// (`<table>.g<generation>.lsnp`). Saves are crash-safe: the data file is
// published with temp-file + fsync + atomic-rename + directory-fsync,
// and only then is the manifest (written the same way) advanced to the
// new generation. A crash between the two commits leaves the manifest
// naming the previous generation's file, which is still on disk — the
// store always loads a complete snapshot or reports a named error,
// never a torn one.
//
// Loads mmap the file and validate header, footer, table-of-contents
// CRC, and every section CRC before decoding a byte of payload; any
// mismatch throws SnapFormatError naming the file and the failed check.
// `FrozenFib::load_or_rebuild` / `NameFib::load_or_rebuild` (whose
// definitions live here) wrap that contract into graceful recovery:
// corruption degrades to a rebuild from the live table, counted by
// lina.snap.fallback_rebuilds.

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "lina/routing/fib.hpp"
#include "lina/routing/name_fib.hpp"
#include "lina/snap/fault.hpp"
#include "lina/snap/format.hpp"

namespace lina::snap {

/// What one committed save produced — enough for callers to report sizes
/// and for the fault-matrix tests to target every section boundary.
struct SavedInfo {
  std::filesystem::path path;
  std::uint64_t bytes = 0;
  std::uint64_t generation = 0;
  std::vector<SectionRecord> sections;
};

/// One manifest row: a committed table and the generation of its file.
struct ManifestEntry {
  std::string table;
  SnapKind kind = SnapKind::kIpFib;
  std::uint64_t generation = 0;
};

/// The decoded manifest: the store-wide generation counter plus the set
/// of committed tables.
struct Manifest {
  std::uint64_t generation = 0;
  std::vector<ManifestEntry> tables;

  [[nodiscard]] const ManifestEntry* find(const std::string& table) const {
    for (const ManifestEntry& e : tables) {
      if (e.table == table) return &e;
    }
    return nullptr;
  }
};

class SnapshotStore {
 public:
  /// Opens (creating the directory if needed) the store at `dir`.
  /// `faults` — normally empty — is consulted on every data-file save;
  /// see FaultPlan.
  explicit SnapshotStore(std::filesystem::path dir, FaultPlan faults = {});

  /// Serializes and durably commits a table under `table`, advancing the
  /// manifest generation. Throws SnapIoError on (real or injected) I/O
  /// failure, leaving the previous generation current.
  SavedInfo save_ip_fib(const std::string& table,
                        const routing::FrozenFib& fib);
  SavedInfo save_name_fib(const std::string& table,
                          const routing::NameFib& fib);

  /// Loads the committed snapshot for `table`, validating every CRC and
  /// structural invariant before use. Throws SnapFormatError (naming the
  /// file and the failed check) on any problem: missing table, kind or
  /// generation mismatch, truncation, bit rot, unsupported version.
  [[nodiscard]] routing::FrozenFib load_ip_fib(const std::string& table) const;
  [[nodiscard]] routing::NameFib load_name_fib(const std::string& table) const;

  /// Reads and validates the manifest; a missing manifest is an empty
  /// store (generation 0, no tables). Throws SnapFormatError if present
  /// but corrupt.
  [[nodiscard]] Manifest manifest() const;

  [[nodiscard]] std::filesystem::path manifest_path() const;
  [[nodiscard]] std::filesystem::path table_path(
      const std::string& table, std::uint64_t generation) const;
  [[nodiscard]] const std::filesystem::path& dir() const { return dir_; }

 private:
  /// Shared save tail: assembles the file image around the encoded
  /// sections, publishes it, then advances the manifest.
  SavedInfo commit(const std::string& table, SnapHeader header,
                   std::vector<std::pair<SectionId, std::vector<char>>>
                       sections);

  std::filesystem::path dir_;
  FaultPlan faults_;
};

}  // namespace lina::snap
