// Roundtrip and format-validation tests for the lina::snap snapshot
// store: saved tables load back with bit-identical lookups, repeated
// saves are byte-deterministic, the manifest generation protocol holds,
// and every structural violation surfaces as a named SnapFormatError.

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

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
  const routing::NameFib live = make_name_fib(2, 300);
  const routing::FrozenNameFib frozen = live.freeze();

  SnapshotStore store(dir.path());
  const SavedInfo info = store.save_name_fib("names", frozen);
  ASSERT_EQ(info.sections.size(), 3u);
  EXPECT_EQ(info.sections[0].id, SectionId::kComponents);
  EXPECT_EQ(info.sections[1].id, SectionId::kNameEdges);
  EXPECT_EQ(info.sections[2].id, SectionId::kNameValues);

  const routing::FrozenNameFib loaded = store.load_name_fib("names");
  expect_name_identical(frozen, loaded, probe_names(9, 2048));
}

TEST(SnapFormat, EmptyTablesRoundtrip) {
  TempSnapDir dir("empty");
  SnapshotStore store(dir.path());
  store.save_ip_fib("ip", routing::Fib().freeze());
  store.save_name_fib("names", routing::NameFib().freeze());

  const routing::FrozenFib ip = store.load_ip_fib("ip");
  EXPECT_EQ(ip.size(), 0u);
  EXPECT_EQ(ip.entry_for(net::Ipv4Address(0x01020304u)), nullptr);
  const routing::FrozenNameFib names = store.load_name_fib("names");
  EXPECT_EQ(names.size(), 0u);
}

TEST(SnapFormat, RepeatedSavesAreByteDeterministic) {
  TempSnapDir dir_a("det-a");
  TempSnapDir dir_b("det-b");
  const routing::FrozenFib ip = make_ip_fib(3, 400).freeze();
  const routing::FrozenNameFib names = make_name_fib(4, 200).freeze();

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
  store.save_name_fib("names", make_name_fib(6, 50).freeze());

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

  store.save_name_fib("n", make_name_fib(10, 20).freeze());
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
  store.save_name_fib("names", name_live.freeze());
  const routing::FrozenNameFib name_warm =
      routing::FrozenNameFib::load_or_rebuild(dir.path(), "names", name_live);
  expect_name_identical(name_live.freeze(), name_warm, probe_names(17, 1024));
}

TEST(SnapFormat, LoadOrRebuildFallsBackWhenStoreIsEmpty) {
  TempSnapDir dir("cold");
  const routing::Fib live = make_ip_fib(18, 200);
  const routing::FrozenFib rebuilt =
      routing::FrozenFib::load_or_rebuild(dir.path(), "device", live);
  expect_ip_identical(live.freeze(), rebuilt, probe_addresses(19, 1024));

  const routing::NameFib name_live = make_name_fib(20, 100);
  const routing::FrozenNameFib name_rebuilt =
      routing::FrozenNameFib::load_or_rebuild(dir.path(), "names", name_live);
  expect_name_identical(name_live.freeze(), name_rebuilt,
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
