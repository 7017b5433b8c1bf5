// The fault-injection matrix for the lina::snap durability contract:
// every injected write fault, crash point, truncation, and bit flip is
// either detected at save time (named SnapIoError, durable state
// untouched) or detected at load time (named SnapFormatError), and
// load_or_rebuild always recovers to lookups bit-identical to the live
// table. Never UB, never a silently wrong answer.

#include <cstdint>
#include <filesystem>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "lina/obs/metrics.hpp"
#include "lina/snap/fault.hpp"
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

/// Shared fixture: a committed generation-1 snapshot ("the good state"),
/// against which every fault's recovery is checked.
class FaultMatrix : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::make_unique<TempSnapDir>("fault-matrix");
    live_v1_ = make_ip_fib(31, 220);
    live_v2_ = make_ip_fib(32, 260);
    probes_ = probe_addresses(33, 2048);
    SnapshotStore clean(dir_->path());
    good_ = clean.save_ip_fib("device", live_v1_.freeze());
  }

  /// Asserts the store still serves generation 1 bit-identically — the
  /// recovery contract after any failed save of v2.
  void expect_previous_generation_intact() {
    SnapshotStore reader(dir_->path());
    const Manifest manifest = reader.manifest();
    EXPECT_EQ(manifest.generation, 1u);
    ASSERT_NE(manifest.find("device"), nullptr);
    EXPECT_EQ(manifest.find("device")->generation, 1u);
    expect_ip_identical(live_v1_.freeze(), reader.load_ip_fib("device"),
                        probes_);
  }

  /// A clean save of v2 must succeed after the fault — no poisoned state.
  void expect_clean_save_recovers() {
    SnapshotStore clean(dir_->path());
    clean.save_ip_fib("device", live_v2_.freeze());
    expect_ip_identical(live_v2_.freeze(), clean.load_ip_fib("device"),
                        probes_);
  }

  std::unique_ptr<TempSnapDir> dir_;
  routing::Fib live_v1_;
  routing::Fib live_v2_;
  std::vector<net::Ipv4Address> probes_;
  SavedInfo good_;
};

TEST_F(FaultMatrix, ShortWritesFailTheSaveAndKeepThePreviousGeneration) {
  for (const std::uint64_t budget :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{17},
        good_.bytes / 2, good_.bytes - 1}) {
    FaultPlan plan;
    plan.fail_write_after = budget;
    SnapshotStore faulty(dir_->path(), plan);
    try {
      faulty.save_ip_fib("device", live_v2_.freeze());
      FAIL() << "short write at " << budget << " bytes must fail the save";
    } catch (const SnapIoError& e) {
      EXPECT_NE(std::string(e.what()).find("ENOSPC"), std::string::npos)
          << e.what();
    }
    expect_previous_generation_intact();
  }
  expect_clean_save_recovers();
}

TEST_F(FaultMatrix, FailedFsyncKeepsThePreviousGeneration) {
  FaultPlan plan;
  plan.fail_fsync = true;
  SnapshotStore faulty(dir_->path(), plan);
  EXPECT_THROW(faulty.save_ip_fib("device", live_v2_.freeze()), SnapIoError);
  expect_previous_generation_intact();
  expect_clean_save_recovers();
}

TEST_F(FaultMatrix, FailedRenameKeepsThePreviousGeneration) {
  FaultPlan plan;
  plan.fail_rename = true;
  SnapshotStore faulty(dir_->path(), plan);
  EXPECT_THROW(faulty.save_ip_fib("device", live_v2_.freeze()), SnapIoError);
  expect_previous_generation_intact();
  expect_clean_save_recovers();
}

TEST_F(FaultMatrix, CrashBeforeRenameLeavesOnlyATempFile) {
  FaultPlan plan;
  plan.crash_before_rename = true;
  SnapshotStore faulty(dir_->path(), plan);
  EXPECT_THROW(faulty.save_ip_fib("device", live_v2_.freeze()), SnapIoError);
  // The would-be generation-2 file never appeared.
  SnapshotStore reader(dir_->path());
  EXPECT_FALSE(std::filesystem::exists(reader.table_path("device", 2)));
  expect_previous_generation_intact();
  expect_clean_save_recovers();
}

TEST_F(FaultMatrix, CrashBeforeManifestKeepsLoadingThePreviousGeneration) {
  FaultPlan plan;
  plan.crash_before_manifest = true;
  SnapshotStore faulty(dir_->path(), plan);
  EXPECT_THROW(faulty.save_ip_fib("device", live_v2_.freeze()), SnapIoError);

  // The generation-2 data file hit the disk, but the manifest still names
  // generation 1 — exactly the crash window the protocol defends.
  SnapshotStore reader(dir_->path());
  EXPECT_TRUE(std::filesystem::exists(reader.table_path("device", 2)));
  expect_previous_generation_intact();
  expect_clean_save_recovers();
}

/// Truncation at every interesting byte count: file start, inside the
/// header, every section boundary (and one byte either side), the footer
/// edge, and one byte short of complete. All must load as a named error
/// and recover through load_or_rebuild.
TEST_F(FaultMatrix, TruncationAtEverySectionBoundaryIsDetectedAndRecovered) {
  const std::vector<char> pristine = read_file(good_.path);
  ASSERT_EQ(pristine.size(), good_.bytes);

  std::set<std::uint64_t> cuts = {0,
                                  1,
                                  kSnapHeaderBytes - 1,
                                  kSnapHeaderBytes,
                                  good_.bytes - kSnapFooterBytes,
                                  good_.bytes - 1};
  for (const SectionRecord& section : good_.sections) {
    cuts.insert(section.offset - 1);
    cuts.insert(section.offset);
    cuts.insert(section.offset + 1);
    cuts.insert(section.offset + section.bytes - 1);
    cuts.insert(section.offset + section.bytes);
  }

  obs::EnabledScope recording;  // count the fallbacks the matrix forces
  const std::uint64_t fallbacks_before =
      obs::metric::snap_fallback_rebuilds().value();
  std::uint64_t cases = 0;
  for (const std::uint64_t cut : cuts) {
    ASSERT_LT(cut, good_.bytes);
    std::vector<char> bytes = pristine;
    bytes.resize(cut);
    write_file(good_.path, bytes);

    SnapshotStore reader(dir_->path());
    EXPECT_THROW((void)reader.load_ip_fib("device"), SnapFormatError)
        << "truncation to " << cut << " bytes must be detected";

    const routing::FrozenFib recovered =
        routing::FrozenFib::load_or_rebuild(dir_->path(), "device", live_v1_);
    expect_ip_identical(live_v1_.freeze(), recovered, probes_);
    ++cases;
  }
  write_file(good_.path, pristine);  // restore for any later reader

  EXPECT_EQ(obs::metric::snap_fallback_rebuilds().value(),
            fallbacks_before + cases);
}

TEST_F(FaultMatrix, PostCommitTruncationViaThePlanIsDetected) {
  FaultPlan plan;
  plan.truncate_to = kSnapHeaderBytes + 3;
  SnapshotStore faulty(dir_->path(), plan);
  // The save commits (the corruption models later media loss)...
  faulty.save_ip_fib("device", live_v2_.freeze());
  // ...and the next load sees the torn file and names it.
  SnapshotStore reader(dir_->path());
  EXPECT_THROW((void)reader.load_ip_fib("device"), SnapFormatError);
  const routing::FrozenFib recovered =
      routing::FrozenFib::load_or_rebuild(dir_->path(), "device", live_v2_);
  expect_ip_identical(live_v2_.freeze(), recovered, probes_);
}

TEST_F(FaultMatrix, PostCommitBitFlipsViaThePlanAreDetected) {
  FaultPlan plan;
  plan.flip_bits = {8 * kSnapHeaderBytes + 5,  // inside the section table
                    8 * (good_.bytes / 2),     // deep in a payload
                    8 * (good_.bytes - 6)};    // inside the footer
  SnapshotStore faulty(dir_->path(), plan);
  faulty.save_ip_fib("device", live_v2_.freeze());
  SnapshotStore reader(dir_->path());
  EXPECT_THROW((void)reader.load_ip_fib("device"), SnapFormatError);
  const routing::FrozenFib recovered =
      routing::FrozenFib::load_or_rebuild(dir_->path(), "device", live_v2_);
  expect_ip_identical(live_v2_.freeze(), recovered, probes_);
}

/// Seeded single-bit rot anywhere in the file: with every byte covered by
/// a CRC (header and toc by the file CRC, payloads by section CRCs, the
/// footer fields by the size/magic checks), a flipped bit either loads as
/// a named error or — if some check were ever relaxed — must still
/// produce bit-identical lookups. Silently wrong answers are the one
/// outcome the format must never allow.
TEST_F(FaultMatrix, SeededBitFlipsNeverProduceWrongLookups) {
  const std::vector<char> pristine = read_file(good_.path);
  const routing::FrozenFib expect = live_v1_.freeze();
  std::mt19937_64 rng(0xfeedfaceULL);
  std::uniform_int_distribution<std::uint64_t> pick(0,
                                                    good_.bytes * 8 - 1);
  std::size_t detected = 0;
  constexpr int kTrials = 256;
  for (int trial = 0; trial < kTrials; ++trial) {
    const std::uint64_t bit = pick(rng);
    std::vector<char> bytes = pristine;
    bytes[bit / 8] = static_cast<char>(
        static_cast<unsigned char>(bytes[bit / 8]) ^ (1u << (bit % 8)));
    write_file(good_.path, bytes);

    SnapshotStore reader(dir_->path());
    try {
      const routing::FrozenFib loaded = reader.load_ip_fib("device");
      expect_ip_identical(expect, loaded, probes_);
    } catch (const SnapFormatError&) {
      ++detected;  // named, as designed
    }

    const routing::FrozenFib recovered =
        routing::FrozenFib::load_or_rebuild(dir_->path(), "device", live_v1_);
    expect_ip_identical(expect, recovered, probes_);
  }
  write_file(good_.path, pristine);
  // Every byte of the file is under a checksum, so every flip must have
  // been caught by name.
  EXPECT_EQ(detected, static_cast<std::size_t>(kTrials));
}

/// The same matrix holds for name-FIB snapshots: truncate at every
/// section boundary and flip seeded bits; always a named error plus a
/// bit-identical rebuild.
TEST(FaultMatrixNames, CorruptNameSnapshotsAreDetectedAndRecovered) {
  TempSnapDir dir("fault-names");
  const routing::NameFib live = make_name_fib(41, 180);
  const std::vector<names::ContentName> probes = probe_names(42, 1024);
  SnapshotStore store(dir.path());
  const SavedInfo good = store.save_name_fib("names", live);
  const std::vector<char> pristine = read_file(good.path);

  std::set<std::uint64_t> cuts = {0, kSnapHeaderBytes,
                                  good.bytes - kSnapFooterBytes,
                                  good.bytes - 1};
  for (const SectionRecord& section : good.sections) {
    cuts.insert(section.offset);
    cuts.insert(section.offset + section.bytes - 1);
  }
  for (const std::uint64_t cut : cuts) {
    std::vector<char> bytes = pristine;
    bytes.resize(cut);
    write_file(good.path, bytes);
    EXPECT_THROW((void)store.load_name_fib("names"), SnapFormatError)
        << "truncation to " << cut;
    const routing::NameFib recovered =
        routing::NameFib::load_or_rebuild(dir.path(), "names", live);
    expect_name_identical(live, recovered, probes);
  }

  std::mt19937_64 rng(0xabadcafeULL);
  std::uniform_int_distribution<std::uint64_t> pick(0, good.bytes * 8 - 1);
  for (int trial = 0; trial < 128; ++trial) {
    const std::uint64_t bit = pick(rng);
    std::vector<char> bytes = pristine;
    bytes[bit / 8] = static_cast<char>(
        static_cast<unsigned char>(bytes[bit / 8]) ^ (1u << (bit % 8)));
    write_file(good.path, bytes);
    EXPECT_THROW((void)store.load_name_fib("names"), SnapFormatError)
        << "flipped bit " << bit;
    const routing::NameFib recovered =
        routing::NameFib::load_or_rebuild(dir.path(), "names", live);
    expect_name_identical(live, recovered, probes);
  }
}

}  // namespace
}  // namespace lina::snap
