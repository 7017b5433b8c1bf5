#include "lina/names/interner.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "lina/names/content_name.hpp"

namespace {

using lina::names::ComponentInterner;
using lina::names::ContentName;

TEST(ComponentInternerTest, SameSpellingSameId) {
  ComponentInterner interner;
  const auto a = interner.intern("yahoo");
  const auto b = interner.intern("travel");
  EXPECT_NE(a, b);
  EXPECT_EQ(interner.intern("yahoo"), a);
  EXPECT_EQ(interner.intern("travel"), b);
  EXPECT_EQ(interner.size(), 2u);
}

TEST(ComponentInternerTest, SpellingRoundTrips) {
  ComponentInterner interner;
  const auto id = interner.intern("com");
  EXPECT_EQ(interner.spelling(id), "com");
  EXPECT_THROW((void)interner.spelling(id + 1), std::out_of_range);
}

TEST(ComponentInternerTest, BytesGrowWithVocabulary) {
  ComponentInterner interner;
  const auto before = interner.bytes();
  (void)interner.intern("a-reasonably-long-component");
  EXPECT_GT(interner.bytes(), before);
}

TEST(ComponentInternerTest, ConcurrentInterningConverges) {
  ComponentInterner interner;
  constexpr int kThreads = 8;
  constexpr int kWords = 64;
  std::vector<std::vector<std::uint32_t>> ids(kThreads);
  {
    std::vector<std::jthread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&interner, &ids, t] {
        for (int w = 0; w < kWords; ++w) {
          ids[static_cast<std::size_t>(t)].push_back(
              interner.intern("w" + std::to_string(w)));
        }
      });
    }
  }
  // Every thread resolved every word to the same id, and the vocabulary
  // holds exactly the distinct words.
  EXPECT_EQ(interner.size(), static_cast<std::size_t>(kWords));
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(ids[static_cast<std::size_t>(t)], ids[0]);
  }
  for (int w = 0; w < kWords; ++w) {
    EXPECT_EQ(interner.spelling(ids[0][static_cast<std::size_t>(w)]),
              "w" + std::to_string(w));
  }
}

TEST(ComponentInternerTest, ContentNamesShareTheGlobalVocabulary) {
  const ContentName a = ContentName::from_dns("travel.yahoo.com");
  const ContentName b = ContentName::from_dns("mail.yahoo.com");
  ASSERT_EQ(a.component_ids().size(), 3u);
  ASSERT_EQ(b.component_ids().size(), 3u);
  // Shared components ("com", "yahoo") resolve to identical ids.
  EXPECT_EQ(a.component_ids()[0], b.component_ids()[0]);
  EXPECT_EQ(a.component_ids()[1], b.component_ids()[1]);
  EXPECT_NE(a.component_ids()[2], b.component_ids()[2]);
  EXPECT_EQ(ComponentInterner::global().spelling(a.component_ids()[2]),
            "travel");
}

}  // namespace
