// Concurrency stress for the striped ScheduleCache — the accounting and
// race gate behind the service daemon's warm path.
//
// T threads drive K distinct keys through one striped cache via the
// single-flight `get_or_compute` entry point.  The accounting contract
// is exact, not statistical: each of the K keys is computed exactly once
// (its leader counts the one miss), and every other arrival is a memory
// hit — so misses == K and memory_hits == T*K - K no matter how the
// threads interleave.  Entries are shared (`CachedPtr`), so the stress
// also pins that an entry a reader holds stays intact while other threads
// evict and refresh its key.  CI runs this binary under ThreadSanitizer
// (the tsan job) and the full suite runs it under ASan+UBSan.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "apps/sched_cache.hpp"
#include "io/pattern_io.hpp"
#include "sched/combined.hpp"
#include "sched/scheduler.hpp"
#include "topo/torus.hpp"

namespace {

using namespace optdm;

constexpr int kThreads = 8;
constexpr int kKeys = 16;

const topo::TorusNetwork& torus() {
  static topo::TorusNetwork net(4, 4);
  return net;
}

/// Distinct shift permutations: pattern i sends src to (src + i + 1).
core::RequestSet shift_pattern(int i) {
  core::RequestSet pattern;
  const int nodes = torus().node_count();
  const int shift = 1 + (i % (nodes - 1));
  for (int src = 0; src < nodes; ++src)
    pattern.push_back({src, (src + shift) % nodes});
  return pattern;
}

apps::CacheKey key_for(int i) {
  // The frame constraint disambiguates: a 16-node torus has only 15
  // distinct shifts, and the contract below needs exactly kKeys distinct
  // keys.
  return apps::make_cache_key(torus(), shift_pattern(i), "combined",
                              sched::SchedOptions{}, /*frame=*/i + 1);
}

TEST(CacheStress, SingleFlightAccountingIsExactUnderContention) {
  apps::ScheduleCache::Options options;
  options.capacity = 256;  // far above K: nothing evicts
  options.shards = 8;
  apps::ScheduleCache cache(torus(), options);

  std::atomic<std::int64_t> computes{0};
  std::atomic<std::int64_t> hits{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Each thread walks the key set from its own offset, so early on
      // different threads hammer different keys (shard-lock contention)
      // while later iterations pile onto keys another thread is still
      // computing (single-flight waits).
      for (int i = 0; i < kKeys; ++i) {
        const int k = (t + i) % kKeys;
        bool computed = false;
        const auto cached = cache.get_or_compute(
            key_for(k),
            [&] {
              computes.fetch_add(1, std::memory_order_relaxed);
              apps::CachedCompilation value;
              value.schedule = sched::combined(torus(), shift_pattern(k));
              return value;
            },
            nullptr, &computed);
        if (!computed) hits.fetch_add(1, std::memory_order_relaxed);
        EXPECT_GT(cached->schedule.degree(), 0);
      }
    });
  }
  for (auto& thread : threads) thread.join();

  // Exactly one compute per key; every other arrival a hit.
  EXPECT_EQ(computes.load(), kKeys);
  EXPECT_EQ(hits.load(), kThreads * kKeys - kKeys);

  const auto stats = cache.stats();
  EXPECT_EQ(stats.misses, kKeys);
  EXPECT_EQ(stats.memory_hits, kThreads * kKeys - kKeys);
  EXPECT_EQ(stats.insertions, kKeys);
  EXPECT_EQ(stats.disk_hits, 0);
  EXPECT_EQ(stats.evictions, 0);
}

TEST(CacheStress, PerShardStatsSumToAggregate) {
  apps::ScheduleCache::Options options;
  options.capacity = 256;
  options.shards = 8;
  apps::ScheduleCache cache(torus(), options);

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kKeys; ++i) {
        const int k = (t + i) % kKeys;
        (void)cache.get_or_compute(key_for(k), [&] {
          apps::CachedCompilation value;
          value.schedule = sched::combined(torus(), shift_pattern(k));
          return value;
        });
      }
    });
  }
  for (auto& thread : threads) thread.join();

  apps::CacheStats summed;
  for (std::size_t s = 0; s < cache.shard_count(); ++s)
    summed += cache.shard_stats(s);
  const auto total = cache.stats();
  EXPECT_EQ(summed.memory_hits, total.memory_hits);
  EXPECT_EQ(summed.disk_hits, total.disk_hits);
  EXPECT_EQ(summed.misses, total.misses);
  EXPECT_EQ(summed.insertions, total.insertions);
  EXPECT_EQ(summed.evictions, total.evictions);
  EXPECT_EQ(total.misses + total.memory_hits,
            static_cast<std::int64_t>(kThreads) * kKeys);
}

// The same accounting with shards=1 — the historical single-lock layout
// must satisfy the identical contract (striping changed the locking, not
// the semantics).
TEST(CacheStress, SingleShardSatisfiesTheSameContract) {
  apps::ScheduleCache::Options options;
  options.capacity = 256;
  options.shards = 1;
  apps::ScheduleCache cache(torus(), options);

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kKeys; ++i) {
        const int k = (t + i) % kKeys;
        (void)cache.get_or_compute(key_for(k), [&] {
          apps::CachedCompilation value;
          value.schedule = sched::combined(torus(), shift_pattern(k));
          return value;
        });
      }
    });
  }
  for (auto& thread : threads) thread.join();

  const auto stats = cache.stats();
  EXPECT_EQ(stats.misses, kKeys);
  EXPECT_EQ(stats.memory_hits, kThreads * kKeys - kKeys);
  ASSERT_EQ(cache.shard_count(), 1u);
}

TEST(CacheStress, HeldEntriesSurviveEvictionUnderContention) {
  // A 2-entry single-stripe cache under T threads: each thread takes an
  // entry, then stores two other keys — enough to evict what it holds
  // (and to refresh keys other threads hold).  The held entry must stay
  // byte-identical until the reader drops it.
  apps::ScheduleCache::Options options;
  options.capacity = 2;
  options.shards = 1;
  apps::ScheduleCache cache(torus(), options);

  // Indexed by key number; `at` keeps the int -> size_t conversions
  // explicit in one place.
  std::vector<apps::CachedCompilation> values;
  std::vector<std::string> texts;
  for (int k = 0; k < kKeys; ++k) {
    apps::CachedCompilation value;
    value.schedule = sched::combined(torus(), shift_pattern(k));
    std::ostringstream text;
    io::write_schedule(text, torus(), value.schedule);
    values.push_back(std::move(value));
    texts.push_back(text.str());
  }
  const auto at = [](const auto& items, int k) -> const auto& {
    return items[static_cast<std::size_t>(k)];
  };

  constexpr int kRounds = 48;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kRounds; ++i) {
        const int k = (t * 5 + i) % kKeys;
        const auto held =
            cache.get_or_compute(key_for(k), [&] { return at(values, k); });
        for (int other = 1; other <= 2; ++other) {
          const int churn = (k + other) % kKeys;
          cache.store(key_for(churn), at(values, churn));
        }
        EXPECT_EQ(held->schedule_text, at(texts, k));
        EXPECT_EQ(held->schedule.degree(), at(values, k).schedule.degree());
      }
    });
  }
  for (auto& thread : threads) thread.join();

  const auto stats = cache.stats();
  EXPECT_GT(stats.evictions, 0);
  EXPECT_EQ(stats.misses + stats.memory_hits,
            static_cast<std::int64_t>(kThreads) * kRounds);
}

}  // namespace
