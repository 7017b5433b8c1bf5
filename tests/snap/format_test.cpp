// Roundtrip and format-validation tests for the lina::snap snapshot
// store: saved tables load back with bit-identical lookups, repeated
// saves are byte-deterministic, the manifest generation protocol holds,
// and every structural violation surfaces as a named SnapFormatError.

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "lina/net/codec.hpp"
#include "lina/net/crc32.hpp"
#include "lina/snap/format.hpp"
#include "lina/snap/store.hpp"
#include "snap_test_util.hpp"

namespace lina::snap {
namespace {

using lina::testing::expect_ip_identical;
using lina::testing::expect_name_identical;
using lina::testing::make_ip_fib;
using lina::testing::make_name_fib;
using lina::testing::probe_addresses;
using lina::testing::probe_names;
using lina::testing::read_file;
using lina::testing::TempSnapDir;
using lina::testing::write_file;

TEST(SnapFormat, IpRoundtripIsBitIdentical) {
  TempSnapDir dir("ip-roundtrip");
  const routing::Fib live = make_ip_fib(1, 500);
  const routing::FrozenFib frozen = live.freeze();

  SnapshotStore store(dir.path());
  const SavedInfo info = store.save_ip_fib("device", frozen);
  EXPECT_EQ(info.generation, 1u);
  EXPECT_EQ(info.bytes, std::filesystem::file_size(info.path));
  ASSERT_EQ(info.sections.size(), 2u);
  EXPECT_EQ(info.sections[0].id, SectionId::kIpNodes);
  EXPECT_EQ(info.sections[1].id, SectionId::kIpValues);

  const routing::FrozenFib loaded = store.load_ip_fib("device");
  expect_ip_identical(frozen, loaded, probe_addresses(7, 4096));
}

TEST(SnapFormat, NameRoundtripIsBitIdentical) {
  TempSnapDir dir("name-roundtrip");
  TempSnapDir again("name-roundtrip-again");
  const routing::NameFib live = make_name_fib(2, 300);

  SnapshotStore store(dir.path());
  const SavedInfo info = store.save_name_fib("names", live);
  ASSERT_EQ(info.sections.size(), 3u);
  EXPECT_EQ(info.sections[0].id, SectionId::kComponents);
  EXPECT_EQ(info.sections[1].id, SectionId::kNameEdges);
  EXPECT_EQ(info.sections[2].id, SectionId::kNameValues);

  const routing::NameFib loaded = store.load_name_fib("names");
  expect_name_identical(live, loaded, probe_names(9, 2048));

  // save -> load -> save writes the same bytes: the loaded arena keeps
  // every slot id.
  const SavedInfo resaved =
      SnapshotStore(again.path()).save_name_fib("names", loaded);
  EXPECT_EQ(read_file(info.path), read_file(resaved.path));
}

TEST(SnapFormat, EmptyTablesRoundtrip) {
  TempSnapDir dir("empty");
  SnapshotStore store(dir.path());
  store.save_ip_fib("ip", routing::Fib().freeze());
  store.save_name_fib("names", routing::NameFib());

  const routing::FrozenFib ip = store.load_ip_fib("ip");
  EXPECT_EQ(ip.size(), 0u);
  EXPECT_EQ(ip.entry_for(net::Ipv4Address(0x01020304u)), nullptr);
  const routing::NameFib names = store.load_name_fib("names");
  EXPECT_EQ(names.size(), 0u);
}

TEST(SnapFormat, RepeatedSavesAreByteDeterministic) {
  TempSnapDir dir_a("det-a");
  TempSnapDir dir_b("det-b");
  const routing::FrozenFib ip = make_ip_fib(3, 400).freeze();
  const routing::NameFib names = make_name_fib(4, 200);

  SnapshotStore a(dir_a.path());
  SnapshotStore b(dir_b.path());
  const SavedInfo ip_a = a.save_ip_fib("t", ip);
  const SavedInfo ip_b = b.save_ip_fib("t", ip);
  EXPECT_EQ(read_file(ip_a.path), read_file(ip_b.path));

  const SavedInfo nm_a = a.save_name_fib("n", names);
  const SavedInfo nm_b = b.save_name_fib("n", names);
  EXPECT_EQ(read_file(nm_a.path), read_file(nm_b.path));
}

TEST(SnapFormat, ManifestTracksGenerationsAndDropsStaleFiles) {
  TempSnapDir dir("manifest");
  SnapshotStore store(dir.path());
  EXPECT_EQ(store.manifest().generation, 0u);
  EXPECT_TRUE(store.manifest().tables.empty());

  const routing::Fib v1 = make_ip_fib(5, 100);
  const SavedInfo first = store.save_ip_fib("device", v1.freeze());
  store.save_name_fib("names", make_name_fib(6, 50));

  const routing::Fib v2 = make_ip_fib(55, 120);
  const SavedInfo third = store.save_ip_fib("device", v2.freeze());

  const Manifest manifest = store.manifest();
  EXPECT_EQ(manifest.generation, 3u);
  ASSERT_NE(manifest.find("device"), nullptr);
  EXPECT_EQ(manifest.find("device")->generation, 3u);
  EXPECT_EQ(manifest.find("device")->kind, SnapKind::kIpFib);
  ASSERT_NE(manifest.find("names"), nullptr);
  EXPECT_EQ(manifest.find("names")->generation, 2u);
  EXPECT_EQ(manifest.find("names")->kind, SnapKind::kNameFib);

  // The superseded generation-1 file is garbage-collected.
  EXPECT_FALSE(std::filesystem::exists(first.path));
  EXPECT_TRUE(std::filesystem::exists(third.path));

  // And the load reflects the latest committed table, not the first.
  expect_ip_identical(v2.freeze(), store.load_ip_fib("device"),
                      probe_addresses(11, 1024));
}

TEST(SnapFormat, MissingTableThrowsNamedError) {
  TempSnapDir dir("missing");
  SnapshotStore store(dir.path());
  store.save_ip_fib("present", make_ip_fib(8, 20).freeze());
  try {
    (void)store.load_ip_fib("absent");
    FAIL() << "load of a missing table must throw";
  } catch (const SnapFormatError& e) {
    EXPECT_NE(std::string(e.what()).find("no committed snapshot"),
              std::string::npos)
        << e.what();
  }
}

TEST(SnapFormat, WrongKindLoadThrows) {
  TempSnapDir dir("kind");
  SnapshotStore store(dir.path());
  store.save_ip_fib("t", make_ip_fib(9, 20).freeze());
  EXPECT_THROW((void)store.load_name_fib("t"), SnapFormatError);

  store.save_name_fib("n", make_name_fib(10, 20));
  EXPECT_THROW((void)store.load_ip_fib("n"), SnapFormatError);
}

TEST(SnapFormat, RejectsBadTableNames) {
  TempSnapDir dir("names-valid");
  SnapshotStore store(dir.path());
  const routing::FrozenFib fib = make_ip_fib(12, 10).freeze();
  EXPECT_THROW(store.save_ip_fib("", fib), SnapFormatError);
  EXPECT_THROW(store.save_ip_fib("../escape", fib), SnapFormatError);
  EXPECT_THROW(store.save_ip_fib("a/b", fib), SnapFormatError);
  EXPECT_THROW(store.save_ip_fib(".hidden", fib), SnapFormatError);
}

// Byte offsets inside the fixed header (see encode_header): magic at 0,
// version u16 at 4, endianness marker u16 at 6, kind u16 at 8.
class HeaderTamper : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::make_unique<TempSnapDir>("tamper");
    store_ = std::make_unique<SnapshotStore>(dir_->path());
    info_ = store_->save_ip_fib("t", make_ip_fib(13, 50).freeze());
    pristine_ = read_file(info_.path);
  }

  void expect_load_fails_with(std::size_t offset, char value,
                              const std::string& needle) {
    std::vector<char> bytes = pristine_;
    bytes.at(offset) = value;
    write_file(info_.path, bytes);
    try {
      (void)store_->load_ip_fib("t");
      FAIL() << "tampered header byte " << offset << " must fail the load";
    } catch (const SnapFormatError& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << "offset " << offset << ": " << e.what();
    }
  }

  std::unique_ptr<TempSnapDir> dir_;
  std::unique_ptr<SnapshotStore> store_;
  SavedInfo info_;
  std::vector<char> pristine_;
};

TEST_F(HeaderTamper, BadMagicIsNamed) {
  expect_load_fails_with(0, 'X', "magic");
}

TEST_F(HeaderTamper, UnsupportedVersionIsNamed) {
  expect_load_fails_with(4, 2, "version");
}

TEST_F(HeaderTamper, ByteSwappedEndianMarkerIsNamed) {
  // 0x00FF stored little-endian is {0xFF, 0x00}; swapping the bytes
  // simulates a snapshot written by an opposite-endian host.
  std::vector<char> bytes = pristine_;
  bytes.at(6) = 0;
  bytes.at(7) = static_cast<char>(0xFF);
  write_file(info_.path, bytes);
  try {
    (void)store_->load_ip_fib("t");
    FAIL() << "byte-swapped endian marker must fail the load";
  } catch (const SnapFormatError& e) {
    EXPECT_NE(std::string(e.what()).find("endian"), std::string::npos)
        << e.what();
  }
}

TEST_F(HeaderTamper, UnknownKindFieldIsNamed) {
  expect_load_fails_with(8, 7, "kind");
}

TEST_F(HeaderTamper, ValidButSwappedKindIsCaughtByChecksum) {
  // Flipping kIpFib to kNameFib passes the header's range check but the
  // header is under the section-table CRC, so the tamper is still named.
  expect_load_fails_with(8, 2, "CRC");
}

TEST(SnapFormat, LoadOrRebuildPrefersSnapshot) {
  TempSnapDir dir("warm");
  const routing::Fib live = make_ip_fib(14, 300);
  SnapshotStore store(dir.path());
  store.save_ip_fib("device", live.freeze());

  const routing::FrozenFib warm =
      routing::FrozenFib::load_or_rebuild(dir.path(), "device", live);
  expect_ip_identical(live.freeze(), warm, probe_addresses(15, 2048));

  const routing::NameFib name_live = make_name_fib(16, 150);
  store.save_name_fib("names", name_live);
  const routing::NameFib name_warm =
      routing::NameFib::load_or_rebuild(dir.path(), "names", name_live);
  expect_name_identical(name_live, name_warm, probe_names(17, 1024));
}

TEST(SnapFormat, LoadOrRebuildFallsBackWhenStoreIsEmpty) {
  TempSnapDir dir("cold");
  const routing::Fib live = make_ip_fib(18, 200);
  const routing::FrozenFib rebuilt =
      routing::FrozenFib::load_or_rebuild(dir.path(), "device", live);
  expect_ip_identical(live.freeze(), rebuilt, probe_addresses(19, 1024));

  const routing::NameFib name_live = make_name_fib(20, 100);
  const routing::NameFib name_rebuilt =
      routing::NameFib::load_or_rebuild(dir.path(), "names", name_live);
  expect_name_identical(name_live, name_rebuilt,
                        probe_names(21, 512));
}

TEST(SnapFormat, CorruptManifestIsNamedNeverCrashes) {
  TempSnapDir dir("manifest-corrupt");
  SnapshotStore store(dir.path());
  store.save_ip_fib("t", make_ip_fib(22, 40).freeze());

  std::vector<char> bytes = read_file(store.manifest_path());
  bytes.back() = static_cast<char>(bytes.back() ^ 0x01);  // break the CRC
  write_file(store.manifest_path(), bytes);

  EXPECT_THROW((void)store.manifest(), SnapFormatError);
  EXPECT_THROW((void)store.load_ip_fib("t"), SnapFormatError);

  // The save path resets a corrupt manifest and keeps working.
  const routing::Fib live = make_ip_fib(23, 60);
  store.save_ip_fib("t", live.freeze());
  expect_ip_identical(live.freeze(), store.load_ip_fib("t"),
                      probe_addresses(24, 1024));
}

/// A name snapshot's edge section, decoded: (parent, local label, child).
struct RawEdge {
  std::uint64_t parent;
  std::uint64_t label;
  std::uint64_t child;
};

std::vector<RawEdge> decode_edges(const std::vector<char>& file,
                                  const SectionRecord& rec) {
  ByteCursor cursor(file.data() + rec.offset, rec.bytes, "edges");
  std::vector<RawEdge> edges(cursor.varint());
  std::uint64_t parent = 0;
  for (RawEdge& e : edges) {
    parent += cursor.varint();
    e.parent = parent;
    e.label = cursor.varint();
    e.child = cursor.varint();
  }
  return edges;
}

/// Encodes `edges` the way the writer does (parent-sorted, delta-coded).
std::vector<char> encode_edges(std::vector<RawEdge> edges) {
  std::stable_sort(edges.begin(), edges.end(),
                   [](const RawEdge& a, const RawEdge& b) {
                     return a.parent < b.parent;
                   });
  std::vector<char> out;
  net::put_varint(out, edges.size());
  std::uint64_t prev = 0;
  for (const RawEdge& e : edges) {
    net::put_varint(out, e.parent - prev);
    net::put_varint(out, e.label);
    net::put_varint(out, e.child);
    prev = e.parent;
  }
  return out;
}

/// Rewrites the snapshot at `info.path` with the edge section replaced
/// and every CRC (section, section table, whole file) recomputed, so
/// only the tree checks can reject it.
void rewrite_edges(const SavedInfo& info, const std::vector<RawEdge>& edges) {
  const std::vector<char> file = read_file(info.path);
  std::vector<std::vector<char>> payloads;
  for (const SectionRecord& rec : info.sections) {
    payloads.push_back(
        rec.id == SectionId::kNameEdges
            ? encode_edges(edges)
            : std::vector<char>(file.begin() + rec.offset,
                                file.begin() + rec.offset + rec.bytes));
  }
  std::vector<char> out(file.begin(), file.begin() + kSnapHeaderBytes);
  std::uint64_t offset =
      kSnapHeaderBytes + info.sections.size() * kSectionRecordBytes + 4;
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    net::put_u32(out, static_cast<std::uint32_t>(info.sections[i].id));
    net::put_u64(out, offset);
    net::put_u64(out, payloads[i].size());
    net::put_u32(out, net::crc32(0, payloads[i].data(), payloads[i].size()));
    offset += payloads[i].size();
  }
  net::put_u32(out, net::crc32(0, out.data(), out.size()));
  for (const std::vector<char>& payload : payloads) {
    out.insert(out.end(), payload.begin(), payload.end());
  }
  net::put_footer(out, kSnapFooterMagic, net::crc32(0, out.data(), out.size()),
                  out.size() + kSnapFooterBytes);
  write_file(info.path, out);
}

/// Fixture: a saved name table plus its decoded edge list. `load_fails`
/// rewrites the edges and expects a SnapFormatError naming the file and
/// containing `needle`.
class NameTreeTamper : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::make_unique<TempSnapDir>("name-tree");
    store_ = std::make_unique<SnapshotStore>(dir_->path());
    info_ = store_->save_name_fib("names", make_name_fib(30, 120));
    const std::vector<char> file = read_file(info_.path);
    for (const SectionRecord& rec : info_.sections) {
      if (rec.id == SectionId::kNameEdges) edges_ = decode_edges(file, rec);
    }
    ASSERT_GT(edges_.size(), 4u);
    // The untampered rewrite must still load: the helper is faithful.
    rewrite_edges(info_, edges_);
    EXPECT_EQ(store_->load_name_fib("names").size(), 120u);
  }

  /// Index of an edge whose child is itself a parent, and of one of that
  /// child's own edges.
  [[nodiscard]] std::pair<std::size_t, std::size_t> parent_and_grandchild()
      const {
    for (std::size_t i = 0; i < edges_.size(); ++i) {
      for (std::size_t j = 0; j < edges_.size(); ++j) {
        if (edges_[j].parent == edges_[i].child) return {i, j};
      }
    }
    ADD_FAILURE() << "fixture table has no depth-2 path";
    return {0, 0};
  }

  void load_fails(const std::vector<RawEdge>& edges,
                  const std::string& needle) {
    rewrite_edges(info_, edges);
    try {
      (void)store_->load_name_fib("names");
      FAIL() << "a malformed edge set must fail the load";
    } catch (const SnapFormatError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(info_.path.filename().string()), std::string::npos)
          << what;
      EXPECT_NE(what.find(needle), std::string::npos) << what;
    }
  }

  std::unique_ptr<TempSnapDir> dir_;
  std::unique_ptr<SnapshotStore> store_;
  SavedInfo info_;
  std::vector<RawEdge> edges_;
};

TEST_F(NameTreeTamper, EdgeIntoTheRootIsNamed) {
  std::vector<RawEdge> edges = edges_;
  edges.back().child = 0;
  load_fails(edges, "root slot 0");
}

TEST_F(NameTreeTamper, SlotClaimedByTwoEdgesIsNamed) {
  std::vector<RawEdge> edges = edges_;
  edges.back().child = edges.front().child;
  load_fails(edges, "another edge already claims");
}

TEST_F(NameTreeTamper, DuplicateParentComponentKeyIsNamed) {
  // Two children of one parent under the same component.
  std::vector<RawEdge> edges = edges_;
  bool found = false;
  for (std::size_t i = 1; i < edges.size() && !found; ++i) {
    if (edges[i].parent == edges[i - 1].parent) {
      edges[i].label = edges[i - 1].label;
      found = true;
    }
  }
  ASSERT_TRUE(found) << "fixture table has no parent with two children";
  load_fails(edges, "duplicates the (parent, component");
}

TEST_F(NameTreeTamper, OrphanSlotIsNamed) {
  std::vector<RawEdge> edges = edges_;
  edges.pop_back();
  load_fails(edges, "not reachable from the root");
}

TEST_F(NameTreeTamper, CycleIsNamed) {
  // Re-parent a node under its own child: both slots stay claimed once,
  // but no walk from the root reaches either.
  std::vector<RawEdge> edges = edges_;
  const auto [up, down] = parent_and_grandchild();
  edges[up].parent = edges[down].child;
  load_fails(edges, "not reachable from the root");
}

TEST(SnapFormat, VarintRejectsOverlongEncodings) {
  // 10 continuation bytes would shift past 63 bits.
  std::vector<char> overlong(10, static_cast<char>(0x80));
  overlong.push_back(0x01);
  ByteCursor cursor(overlong.data(), overlong.size(), "overlong");
  EXPECT_THROW((void)cursor.varint(), SnapFormatError);

  // The trace format's rule: after nine continuation bytes, the 10th may
  // carry bit 63 only.
  for (const unsigned char last : {0x02, 0x7F, 0x81}) {
    std::vector<char> bytes(9, static_cast<char>(0x80));
    bytes.push_back(static_cast<char>(last));
    bytes.push_back(0);  // trailing room must not change the verdict
    ByteCursor tenth(bytes.data(), bytes.size(), "overlong");
    EXPECT_THROW((void)tenth.varint(), SnapFormatError) << unsigned{last};
  }
}

TEST(SnapFormat, BitRoundtripAcrossByteBoundaries) {
  BitWriter writer;
  writer.bits(0x2Au, 6);
  writer.bit(true);
  writer.varint(0);
  writer.varint(127);
  writer.varint(128);
  writer.varint(0x0123456789abcdefull);
  writer.bits(0x1FFFFu, 17);
  const std::vector<char> packed = writer.finish();

  BitReader reader(packed.data(), packed.size(), "bits");
  EXPECT_EQ(reader.bits(6), 0x2Au);
  EXPECT_TRUE(reader.bit());
  EXPECT_EQ(reader.varint(), 0u);
  EXPECT_EQ(reader.varint(), 127u);
  EXPECT_EQ(reader.varint(), 128u);
  EXPECT_EQ(reader.varint(), 0x0123456789abcdefull);
  EXPECT_EQ(reader.bits(17), 0x1FFFFu);
  EXPECT_THROW((void)reader.bits(32), SnapFormatError);  // past the end
}

}  // namespace
}  // namespace lina::snap
