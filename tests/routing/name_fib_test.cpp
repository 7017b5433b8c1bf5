#include "lina/routing/name_fib.hpp"

#include <gtest/gtest.h>

namespace lina::routing {
namespace {

names::ContentName uri(const char* text) {
  return names::ContentName::from_uri(text);
}

TEST(NameFibTest, AnnounceAndLookup) {
  NameFib fib;
  fib.announce(uri("/Disney"), 3);
  fib.announce(uri("/20thCenturyFox"), 5);
  EXPECT_EQ(fib.size(), 2u);
  EXPECT_EQ(fib.port_for(uri("/Disney/Frozen")), 3u);
  EXPECT_EQ(fib.port_for(uri("/20thCenturyFox/StarWarsIV")), 5u);
  EXPECT_EQ(fib.port_for(uri("/Paramount/TopGun")), std::nullopt);
}

TEST(NameFibTest, PaperFigure2bExample) {
  // Router Q: /20thCenturyFox/* -> 5, /Disney/* -> 3. The rights transfer
  // renames /20thCenturyFox/StarWarsIV to /Disney/StarWarsIV; Q must pin
  // [/Disney/StarWarsIV -> 5] because the LPM ports differ.
  NameFib q;
  q.announce(uri("/20thCenturyFox"), 5);
  q.announce(uri("/Disney"), 3);

  EXPECT_TRUE(q.process_rename(uri("/20thCenturyFox/StarWarsIV"),
                               uri("/Disney/StarWarsIV")));
  EXPECT_EQ(q.exception_count(), 1u);
  EXPECT_EQ(q.size(), 3u);
  // Requests under the new name still reach port 5; siblings under
  // /Disney are unaffected.
  EXPECT_EQ(q.port_for(uri("/Disney/StarWarsIV")), 5u);
  EXPECT_EQ(q.port_for(uri("/Disney/Frozen")), 3u);
}

TEST(NameFibTest, RenameWithEqualPortsIsFree) {
  // A router whose prefixes for both hierarchies share the output port is
  // not displaced by the rename (the §3.1 condition).
  NameFib r;
  r.announce(uri("/20thCenturyFox"), 7);
  r.announce(uri("/Disney"), 7);
  EXPECT_FALSE(r.process_rename(uri("/20thCenturyFox/StarWarsIV"),
                                uri("/Disney/StarWarsIV")));
  EXPECT_EQ(r.exception_count(), 0u);
  EXPECT_EQ(r.size(), 2u);
}

TEST(NameFibTest, RenameToUncoveredNameInstallsException) {
  NameFib fib;
  fib.announce(uri("/20thCenturyFox"), 5);
  EXPECT_TRUE(fib.process_rename(uri("/20thCenturyFox/StarWarsIV"),
                                 uri("/Lucasfilm/StarWarsIV")));
  EXPECT_EQ(fib.port_for(uri("/Lucasfilm/StarWarsIV")), 5u);
  // Unrelated names under the new hierarchy stay uncovered.
  EXPECT_EQ(fib.port_for(uri("/Lucasfilm/Willow")), std::nullopt);
}

TEST(NameFibTest, RenameOfUnroutedNameThrows) {
  NameFib fib;
  fib.announce(uri("/Disney"), 3);
  EXPECT_THROW((void)fib.process_rename(uri("/Unknown/Item"),
                                        uri("/Disney/Item")),
               std::invalid_argument);
}

TEST(NameFibTest, ChainedRenamesAccumulateExceptions) {
  NameFib fib;
  fib.announce(uri("/a"), 1);
  fib.announce(uri("/b"), 2);
  fib.announce(uri("/c"), 3);
  EXPECT_TRUE(fib.process_rename(uri("/a/x"), uri("/b/x")));
  EXPECT_TRUE(fib.process_rename(uri("/b/x"), uri("/c/x")));
  EXPECT_EQ(fib.exception_count(), 2u);
  // The second rename preserves reachability of the *current* location,
  // which the first exception pinned to port 1.
  EXPECT_EQ(fib.port_for(uri("/c/x")), 1u);
}

TEST(NameFibTest, LpmCompression) {
  NameFib fib;
  fib.announce(uri("/com"), 1);
  fib.announce(uri("/com/yahoo"), 1);   // subsumed
  fib.announce(uri("/com/cnn"), 2);
  EXPECT_EQ(fib.size(), 3u);
  EXPECT_EQ(fib.lpm_compressed_size(), 2u);
}

}  // namespace
}  // namespace lina::routing
