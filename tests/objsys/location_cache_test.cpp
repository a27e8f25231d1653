// LocationCache: unit behaviour plus the concurrent invalidate/lookup
// race the live runtime produces (migrations invalidate while invocation
// threads resolve) — the scenario scripts/check.sh pins under TSan.
#include "objsys/location_cache.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

namespace omig::objsys {
namespace {

TEST(LocationCacheTest, PutGetInvalidate) {
  LocationCache cache;
  EXPECT_EQ(cache.get(ObjectId{1}), std::nullopt);
  cache.put(ObjectId{1}, 3, 17);
  const auto hit = cache.get(ObjectId{1});
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->node, 3u);
  EXPECT_EQ(hit->stamp, 17u);
  EXPECT_TRUE(cache.invalidate(ObjectId{1}));
  EXPECT_FALSE(cache.invalidate(ObjectId{1}));  // already gone
  EXPECT_EQ(cache.get(ObjectId{1}), std::nullopt);
}

TEST(LocationCacheTest, PutOverwritesAndSizeTracks) {
  LocationCache cache;
  cache.put(ObjectId{1}, 0, 1);
  cache.put(ObjectId{1}, 5, 2);  // overwrite, not a second entry
  cache.put(ObjectId{2}, 7, 3);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.get(ObjectId{1})->node, 5u);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
}

TEST(LocationCacheTest, CountersAccount) {
  LocationCache cache;
  (void)cache.get(ObjectId{9});
  cache.put(ObjectId{2}, 1, 0);
  (void)cache.get(ObjectId{2});
  (void)cache.get(ObjectId{2});
  (void)cache.invalidate(ObjectId{2});
  EXPECT_EQ(cache.hits(), 2u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.invalidations(), 1u);
}

TEST(LocationCacheTest, ConcurrentInvalidateAndLookup) {
  // Readers resolve while writers migrate (put) and invalidate the same
  // small key space concurrently. The assertion is the absence of a data
  // race (TSan) plus counter coherence afterwards.
  LocationCache cache;
  constexpr int kKeys = 8;
  constexpr int kOpsPerThread = 20'000;
  std::atomic<std::uint64_t> observed_gets{0};
  auto key_of = [](int i) {
    return ObjectId{static_cast<std::uint32_t>(i % kKeys)};
  };

  std::vector<std::thread> threads;
  for (int reader = 0; reader < 2; ++reader) {
    threads.emplace_back([&] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        (void)cache.get(key_of(i));
        observed_gets.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  threads.emplace_back([&] {
    for (int i = 0; i < kOpsPerThread; ++i) {
      cache.put(key_of(i), static_cast<std::uint64_t>(i), 0);
    }
  });
  threads.emplace_back([&] {
    for (int i = 0; i < kOpsPerThread; ++i) {
      (void)cache.invalidate(key_of(i));
      if (i % 1024 == 0) cache.clear();
    }
  });
  for (auto& t : threads) t.join();

  EXPECT_EQ(cache.hits() + cache.misses(), observed_gets.load());
  EXPECT_LE(cache.size(), static_cast<std::size_t>(kKeys));
}

}  // namespace
}  // namespace omig::objsys
