// The content-addressed schedule cache: warm hits are byte-identical to
// the cold compile, keys invalidate on every input that matters, the
// disk tier survives corruption, and the LRU tier evicts.

#include "apps/sched_cache.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <algorithm>
#include <iomanip>
#include <numeric>
#include <random>
#include <sstream>
#include <stdexcept>

#include "io/pattern_io.hpp"
#include "patterns/named.hpp"
#include "sched/combined.hpp"
#include "topo/torus.hpp"

namespace {

using namespace optdm;

std::string text_of(const topo::Network& net, const core::Schedule& schedule) {
  std::ostringstream out;
  io::write_schedule(out, net, schedule);
  return out.str();
}

std::string fresh_dir(const std::string& name) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("optdm_cache_test_" + name);
  std::filesystem::remove_all(dir);
  return dir.string();
}

std::string entry_file(const std::string& dir, const apps::CacheKey& key) {
  std::ostringstream hex;
  hex << std::hex << std::setw(16) << std::setfill('0') << key.hash();
  return (std::filesystem::path(dir) / (hex.str() + ".json")).string();
}

apps::CachedCompilation compile_ring(const topo::TorusNetwork& net) {
  apps::CachedCompilation value;
  value.schedule = sched::combined(net, patterns::ring(net.node_count()));
  value.lower_bound = 2;
  value.winner = "coloring";
  return value;
}

TEST(ScheduleCache, WarmMemoryHitIsByteIdentical) {
  topo::TorusNetwork net(4, 4);
  apps::ScheduleCache cache(net);
  const auto pattern = patterns::ring(net.node_count());
  const auto key =
      apps::make_cache_key(net, pattern, "combined", sched::SchedOptions{});

  EXPECT_EQ(cache.lookup(key), nullptr);
  const auto value = compile_ring(net);
  cache.store(key, value);

  const auto hit = cache.lookup(key);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(text_of(net, hit->schedule), text_of(net, value.schedule));
  EXPECT_EQ(hit->lower_bound, value.lower_bound);
  EXPECT_EQ(hit->winner, value.winner);

  const auto stats = cache.stats();
  EXPECT_EQ(stats.memory_hits, 1);
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.insertions, 1);
}

TEST(ScheduleCache, KeyInvalidatesOnEveryCompilationInput) {
  topo::TorusNetwork net(4, 4);
  const auto pattern = patterns::ring(net.node_count());
  const sched::SchedOptions options;
  const auto base = apps::make_cache_key(net, pattern, "combined", options);

  // Pattern change (even a reorder — the greedy pass is order-sensitive).
  auto reordered = pattern;
  std::swap(reordered.front(), reordered.back());
  EXPECT_NE(base.canonical(),
            apps::make_cache_key(net, reordered, "combined", options)
                .canonical());

  // Scheduler change.
  EXPECT_NE(base.canonical(),
            apps::make_cache_key(net, pattern, "coloring", options)
                .canonical());

  // Scheduler-option change.
  sched::SchedOptions tweaked;
  tweaked.priority = sched::ColoringPriority::kDegreeOnly;
  EXPECT_NE(base.canonical(),
            apps::make_cache_key(net, pattern, "combined", tweaked)
                .canonical());

  // Frame / K constraint change.
  EXPECT_NE(base.canonical(),
            apps::make_cache_key(net, pattern, "combined", options, 8)
                .canonical());

  // Topology change.
  topo::TorusNetwork other(8, 8);
  EXPECT_NE(base.canonical(),
            apps::make_cache_key(other, pattern, "combined", options)
                .canonical());
}

TEST(ScheduleCache, KeyForAnotherTopologyIsAlwaysAMiss) {
  topo::TorusNetwork net(4, 4);
  topo::TorusNetwork other(8, 8);
  apps::ScheduleCache cache(net);
  const auto pattern = patterns::ring(other.node_count());
  const auto key =
      apps::make_cache_key(other, pattern, "combined", sched::SchedOptions{});
  cache.store(key, compile_ring(net));  // silently ignored
  EXPECT_EQ(cache.lookup(key), nullptr);
  EXPECT_EQ(cache.stats().insertions, 0);
}

TEST(ScheduleCache, DiskTierSurvivesProcessBoundaries) {
  topo::TorusNetwork net(4, 4);
  const auto dir = fresh_dir("disk_roundtrip");
  const auto pattern = patterns::ring(net.node_count());
  const auto key =
      apps::make_cache_key(net, pattern, "combined", sched::SchedOptions{});
  const auto value = compile_ring(net);

  {
    apps::ScheduleCache::Options options;
    options.disk_dir = dir;
    apps::ScheduleCache writer(net, options);
    writer.store(key, value);
  }

  // A fresh cache (fresh process, in spirit) hits the disk tier.
  apps::ScheduleCache::Options options;
  options.disk_dir = dir;
  apps::ScheduleCache reader(net, options);
  const auto hit = reader.lookup(key);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(text_of(net, hit->schedule), text_of(net, value.schedule));
  EXPECT_EQ(hit->winner, value.winner);
  EXPECT_EQ(reader.stats().disk_hits, 1);

  // The disk hit was promoted: the next lookup is a memory hit.
  EXPECT_NE(reader.lookup(key), nullptr);
  EXPECT_EQ(reader.stats().memory_hits, 1);
  std::filesystem::remove_all(dir);
}

TEST(ScheduleCache, CorruptDiskEntryIsNonFatalAndRewritten) {
  topo::TorusNetwork net(4, 4);
  const auto dir = fresh_dir("corrupt");
  const auto pattern = patterns::ring(net.node_count());
  const auto key =
      apps::make_cache_key(net, pattern, "combined", sched::SchedOptions{});
  const auto value = compile_ring(net);

  std::filesystem::create_directories(dir);
  {
    std::ofstream out(entry_file(dir, key));
    out << "{\"schema\":\"optdm-sched-cache/1\", this is not json";
  }

  apps::ScheduleCache::Options options;
  options.disk_dir = dir;
  apps::ScheduleCache cache(net, options);
  EXPECT_EQ(cache.lookup(key), nullptr);
  EXPECT_EQ(cache.stats().disk_rejects, 1);
  // The wreck was moved aside, not left to be re-read as corrupt forever.
  EXPECT_EQ(cache.stats().disk_quarantined, 1);
  EXPECT_FALSE(std::filesystem::exists(entry_file(dir, key)));
  EXPECT_TRUE(
      std::filesystem::exists(entry_file(dir, key) + ".quarantined"));

  // Storing rewrites the corrupt file; a fresh cache then reads it fine.
  cache.store(key, value);
  apps::ScheduleCache reader(net, options);
  const auto hit = reader.lookup(key);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(text_of(net, hit->schedule), text_of(net, value.schedule));
  std::filesystem::remove_all(dir);
}

TEST(ScheduleCache, StaleEntryWithMismatchedKeyIsRejected) {
  topo::TorusNetwork net(4, 4);
  const auto dir = fresh_dir("stale");
  const auto pattern = patterns::ring(net.node_count());
  const auto key =
      apps::make_cache_key(net, pattern, "combined", sched::SchedOptions{});
  const auto value = compile_ring(net);

  {
    apps::ScheduleCache::Options options;
    options.disk_dir = dir;
    apps::ScheduleCache writer(net, options);
    writer.store(key, value);
  }
  // Simulate a filename collision / stale file: same address, different
  // stored key material.
  const auto path = entry_file(dir, key);
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  in.close();
  auto text = buffer.str();
  const auto pos = text.find("combined");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 8, "coloring");
  std::ofstream(path) << text;

  apps::ScheduleCache::Options options;
  options.disk_dir = dir;
  apps::ScheduleCache cache(net, options);
  EXPECT_EQ(cache.lookup(key), nullptr);
  EXPECT_EQ(cache.stats().disk_rejects, 1);
  EXPECT_EQ(cache.stats().disk_quarantined, 1);
  std::filesystem::remove_all(dir);
}

TEST(ScheduleCache, TruncatedEntryIsQuarantinedThenRecompiled) {
  // A torn write from a pre-fsync crash (or a full disk) leaves a prefix
  // of a valid document.  It must read as a miss, move aside, and the
  // next store must land a clean replacement at the same address.
  topo::TorusNetwork net(4, 4);
  const auto dir = fresh_dir("truncated");
  const auto pattern = patterns::ring(net.node_count());
  const auto key =
      apps::make_cache_key(net, pattern, "combined", sched::SchedOptions{});
  const auto value = compile_ring(net);

  apps::ScheduleCache::Options options;
  options.disk_dir = dir;
  {
    apps::ScheduleCache writer(net, options);
    writer.store(key, value);
  }
  const auto path = entry_file(dir, key);
  const auto size = std::filesystem::file_size(path);
  ASSERT_GT(size, 16u);
  std::filesystem::resize_file(path, size / 2);

  apps::ScheduleCache cache(net, options);
  EXPECT_EQ(cache.lookup(key), nullptr);
  EXPECT_EQ(cache.stats().disk_rejects, 1);
  EXPECT_EQ(cache.stats().disk_quarantined, 1);
  EXPECT_TRUE(std::filesystem::exists(path + ".quarantined"));

  cache.store(key, value);
  const auto hit = cache.lookup(key);  // memory tier
  ASSERT_NE(hit, nullptr);
  apps::ScheduleCache reader(net, options);  // disk tier
  const auto disk_hit = reader.lookup(key);
  ASSERT_NE(disk_hit, nullptr);
  EXPECT_EQ(text_of(net, disk_hit->schedule), text_of(net, value.schedule));
  std::filesystem::remove_all(dir);
}

TEST(ScheduleCache, RepeatedCorruptionKeepsTheLatestWreck) {
  // A second incident at the same address must replace the previous
  // quarantine file, not fail the rename and delete the evidence.
  topo::TorusNetwork net(4, 4);
  const auto dir = fresh_dir("requarantine");
  const auto pattern = patterns::ring(net.node_count());
  const auto key =
      apps::make_cache_key(net, pattern, "combined", sched::SchedOptions{});

  std::filesystem::create_directories(dir);
  apps::ScheduleCache::Options options;
  options.disk_dir = dir;
  apps::ScheduleCache cache(net, options);
  for (const char* wreck : {"first wreck", "second wreck"}) {
    std::ofstream(entry_file(dir, key)) << wreck;
    EXPECT_EQ(cache.lookup(key), nullptr);
  }
  EXPECT_EQ(cache.stats().disk_quarantined, 2);
  std::ifstream in(entry_file(dir, key) + ".quarantined");
  std::string kept;
  std::getline(in, kept);
  EXPECT_EQ(kept, "second wreck");
  std::filesystem::remove_all(dir);
}

TEST(ScheduleCache, ScrubRepairsQuarantinesAndSweepsTemps) {
  topo::TorusNetwork net(4, 4);
  const auto dir = fresh_dir("scrub");
  const auto pattern = patterns::ring(net.node_count());
  const auto key =
      apps::make_cache_key(net, pattern, "combined", sched::SchedOptions{});
  const auto other_key = apps::make_cache_key(
      net, pattern, "combined", sched::SchedOptions{}, /*frame=*/8);
  const auto value = compile_ring(net);

  apps::ScheduleCache::Options options;
  options.disk_dir = dir;
  {
    apps::ScheduleCache writer(net, options);
    writer.store(key, value);        // (a) valid, correctly addressed
    writer.store(other_key, value);  // (b) will be misaddressed below
  }
  // (b) valid document at the wrong filename (as after a hand-restore).
  const auto stray = (std::filesystem::path(dir) / "00deadbeef00.json").string();
  std::filesystem::rename(entry_file(dir, other_key), stray);
  // (c) a corrupt document.
  const auto wreck = (std::filesystem::path(dir) / "0123456789abcdef.json").string();
  std::ofstream(wreck) << "not a cache entry";
  // (d) an orphaned commit temp from a crashed writer.
  std::ofstream(entry_file(dir, key) + ".tmp.99999") << "torn";
  // (e) a valid entry of a *different* topology sharing the directory.
  topo::TorusNetwork other_net(8, 8);
  {
    apps::ScheduleCache::Options foreign_options;
    foreign_options.disk_dir = dir;
    apps::ScheduleCache foreign(other_net, foreign_options);
    apps::CachedCompilation foreign_value;
    foreign_value.schedule =
        sched::combined(other_net, patterns::ring(other_net.node_count()));
    foreign.store(apps::make_cache_key(other_net,
                                       patterns::ring(other_net.node_count()),
                                       "combined", sched::SchedOptions{}),
                  foreign_value);
  }

  apps::ScheduleCache cache(net, options);
  const auto report = cache.scrub();
  EXPECT_EQ(report.scanned, 4);  // a, b(stray), c, e — the temp is not a doc
  EXPECT_EQ(report.valid, 1);
  EXPECT_EQ(report.repaired, 1);
  EXPECT_EQ(report.quarantined, 1);
  EXPECT_EQ(report.removed_tmp, 1);
  EXPECT_EQ(report.foreign, 1);

  // The repaired entry is back at its content address and readable.
  EXPECT_FALSE(std::filesystem::exists(stray));
  EXPECT_TRUE(std::filesystem::exists(entry_file(dir, other_key)));
  EXPECT_NE(cache.lookup(other_key), nullptr);
  // The wreck moved aside; the temp is gone.
  EXPECT_FALSE(std::filesystem::exists(wreck));
  EXPECT_TRUE(std::filesystem::exists(wreck + ".quarantined"));
  EXPECT_FALSE(std::filesystem::exists(entry_file(dir, key) + ".tmp.99999"));

  // Scrubbing again is a fixed point: the quarantined wreck is not
  // rescanned, the repaired entry now counts as valid, the foreign entry
  // stays foreign.
  const auto again = cache.scrub();
  EXPECT_EQ(again.scanned, 3);  // a, repaired b, foreign e
  EXPECT_EQ(again.valid, 2);
  EXPECT_EQ(again.repaired, 0);
  EXPECT_EQ(again.quarantined, 0);
  EXPECT_EQ(again.removed_tmp, 0);
  EXPECT_EQ(again.foreign, 1);
  std::filesystem::remove_all(dir);
}

TEST(ScheduleCache, CommitTempsArePidUniqueAndInvisibleToReaders) {
  // A leftover temp (crashed writer) must not shadow or corrupt the real
  // entry, and a store must still commit past it.
  topo::TorusNetwork net(4, 4);
  const auto dir = fresh_dir("temps");
  const auto pattern = patterns::ring(net.node_count());
  const auto key =
      apps::make_cache_key(net, pattern, "combined", sched::SchedOptions{});
  const auto value = compile_ring(net);

  std::filesystem::create_directories(dir);
  std::ofstream(entry_file(dir, key) + ".tmp.424242") << "someone died here";

  apps::ScheduleCache::Options options;
  options.disk_dir = dir;
  apps::ScheduleCache cache(net, options);
  EXPECT_EQ(cache.lookup(key), nullptr);  // temp is not an entry
  cache.store(key, value);

  apps::ScheduleCache reader(net, options);
  const auto hit = reader.lookup(key);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(text_of(net, hit->schedule), text_of(net, value.schedule));
  EXPECT_EQ(reader.stats().disk_rejects, 0);
  std::filesystem::remove_all(dir);
}

TEST(ScheduleCache, LruEvictsTheColdestEntry) {
  topo::TorusNetwork net(4, 4);
  apps::ScheduleCache::Options options;
  options.capacity = 2;
  apps::ScheduleCache cache(net, options);
  const auto value = compile_ring(net);
  const sched::SchedOptions sched_options;

  const auto key_of = [&](std::int64_t frame) {
    return apps::make_cache_key(net, patterns::ring(net.node_count()),
                                "combined", sched_options, frame);
  };
  cache.store(key_of(1), value);
  cache.store(key_of(2), value);
  EXPECT_NE(cache.lookup(key_of(1)), nullptr);  // 1 now most recent
  cache.store(key_of(3), value);                     // evicts 2

  EXPECT_NE(cache.lookup(key_of(1)), nullptr);
  EXPECT_EQ(cache.lookup(key_of(2)), nullptr);
  EXPECT_NE(cache.lookup(key_of(3)), nullptr);
  EXPECT_EQ(cache.stats().evictions, 1);
}

TEST(ScheduleCache, UnknownWinnerStringIsRejectedAndQuarantined) {
  // The winner field has a closed vocabulary ("", "coloring",
  // "ordered-aapc"); anything else is bitrot and must never reach the
  // pipeline's enum mapping.
  topo::TorusNetwork net(4, 4);
  const auto dir = fresh_dir("winner");
  const auto pattern = patterns::ring(net.node_count());
  const auto key =
      apps::make_cache_key(net, pattern, "combined", sched::SchedOptions{});
  {
    apps::ScheduleCache::Options options;
    options.disk_dir = dir;
    apps::ScheduleCache writer(net, options);
    writer.store(key, compile_ring(net));
  }
  const auto path = entry_file(dir, key);
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  in.close();
  auto text = buffer.str();
  const auto pos = text.find("\"coloring\"");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 10, "\"c0l0ring\"");
  std::ofstream(path) << text;

  apps::ScheduleCache::Options options;
  options.disk_dir = dir;
  apps::ScheduleCache cache(net, options);
  EXPECT_EQ(cache.lookup(key), nullptr);
  EXPECT_EQ(cache.stats().disk_rejects, 1);
  EXPECT_EQ(cache.stats().disk_quarantined, 1);
  EXPECT_TRUE(std::filesystem::exists(path + ".quarantined"));
  std::filesystem::remove_all(dir);
}

TEST(ScheduleCache, ShardCountNormalizesToAPowerOfTwo) {
  topo::TorusNetwork net(4, 4);
  const auto count_for = [&](std::size_t shards) {
    apps::ScheduleCache::Options options;
    options.shards = shards;
    return apps::ScheduleCache(net, options).shard_count();
  };
  EXPECT_EQ(count_for(0), 1u);
  EXPECT_EQ(count_for(1), 1u);
  EXPECT_EQ(count_for(5), 8u);
  EXPECT_EQ(count_for(8), 8u);
  EXPECT_EQ(count_for(100000), 1024u);  // runaway configs cap out
}

TEST(ScheduleCache, StripedCacheMatchesSingleLockBehavior) {
  // shards is a locking knob, not a semantic one: the same store/lookup
  // sequence against a 1-shard and an 8-shard cache returns byte-identical
  // schedules and identical aggregate counters.
  topo::TorusNetwork net(4, 4);
  const auto value = compile_ring(net);
  const auto key_of = [&](std::int64_t frame) {
    return apps::make_cache_key(net, patterns::ring(net.node_count()),
                                "combined", sched::SchedOptions{}, frame);
  };
  apps::ScheduleCache::Options single_options;
  single_options.shards = 1;
  apps::ScheduleCache::Options striped_options;
  striped_options.shards = 8;
  apps::ScheduleCache single(net, single_options);
  apps::ScheduleCache striped(net, striped_options);

  for (std::int64_t frame = 1; frame <= 8; ++frame) {
    single.store(key_of(frame), value);
    striped.store(key_of(frame), value);
  }
  for (std::int64_t frame = 1; frame <= 8; ++frame) {
    const auto a = single.lookup(key_of(frame));
    const auto b = striped.lookup(key_of(frame));
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(text_of(net, a->schedule), text_of(net, b->schedule));
  }
  EXPECT_EQ(single.stats().memory_hits, striped.stats().memory_hits);
  EXPECT_EQ(single.stats().insertions, striped.stats().insertions);

  apps::CacheStats summed;
  for (std::size_t s = 0; s < striped.shard_count(); ++s)
    summed += striped.shard_stats(s);
  EXPECT_EQ(summed.memory_hits, striped.stats().memory_hits);
  EXPECT_EQ(summed.insertions, striped.stats().insertions);
}

TEST(ScheduleCache, EvictionBudgetIsPerShard) {
  // capacity=4 over 4 shards = one entry per shard: a second key landing
  // on an occupied shard must evict within that shard, while other shards
  // keep their entries.
  topo::TorusNetwork net(4, 4);
  apps::ScheduleCache::Options options;
  options.capacity = 4;
  options.shards = 4;
  apps::ScheduleCache cache(net, options);
  const auto value = compile_ring(net);
  const auto key_of = [&](std::int64_t frame) {
    return apps::make_cache_key(net, patterns::ring(net.node_count()),
                                "combined", sched::SchedOptions{}, frame);
  };

  // Find two keys that address the same shard and one that does not.
  const auto shard_of = [&](std::int64_t frame) {
    return cache.shard_for(key_of(frame));
  };
  std::int64_t first = 1;
  std::int64_t collider = 0;
  std::int64_t elsewhere = 0;
  for (std::int64_t frame = 2; frame <= 64; ++frame) {
    if (collider == 0 && shard_of(frame) == shard_of(first)) collider = frame;
    if (elsewhere == 0 && shard_of(frame) != shard_of(first))
      elsewhere = frame;
  }
  ASSERT_NE(collider, 0);
  ASSERT_NE(elsewhere, 0);

  cache.store(key_of(first), value);
  cache.store(key_of(elsewhere), value);
  cache.store(key_of(collider), value);  // same shard as `first`: evicts it

  EXPECT_EQ(cache.lookup(key_of(first)), nullptr);
  EXPECT_NE(cache.lookup(key_of(collider)), nullptr);
  EXPECT_NE(cache.lookup(key_of(elsewhere)), nullptr);
  EXPECT_EQ(cache.stats().evictions, 1);
}

TEST(ScheduleCache, KeepTextMemoizesByteIdenticalSerialization) {
  // Every entry memoizes its `io::write_schedule` text, whichever tier
  // the hit comes from.
  topo::TorusNetwork net(4, 4);
  const auto dir = fresh_dir("memoized_text");
  const auto pattern = patterns::ring(net.node_count());
  const auto key =
      apps::make_cache_key(net, pattern, "combined", sched::SchedOptions{});
  const auto value = compile_ring(net);
  const auto expected = text_of(net, value.schedule);

  apps::ScheduleCache memory(net);
  memory.store(key, value);
  const auto memory_hit = memory.lookup(key);
  ASSERT_NE(memory_hit, nullptr);
  EXPECT_EQ(memory_hit->schedule_text, expected);

  apps::ScheduleCache::Options options;
  options.disk_dir = dir;
  apps::ScheduleCache(net, options).store(key, value);
  apps::ScheduleCache reader(net, options);
  bool from_disk = false;
  const auto disk_hit = reader.lookup(key, &from_disk);
  ASSERT_NE(disk_hit, nullptr);
  EXPECT_TRUE(from_disk);
  EXPECT_EQ(disk_hit->schedule_text, expected);
  std::filesystem::remove_all(dir);
}

TEST(ScheduleCache, GetOrComputeServesHitsAndReportsProvenance) {
  topo::TorusNetwork net(4, 4);
  apps::ScheduleCache cache(net);
  const auto key = apps::make_cache_key(net, patterns::ring(net.node_count()),
                                        "combined", sched::SchedOptions{});

  bool computed = false;
  bool from_disk = true;
  const auto first = cache.get_or_compute(
      key, [&] { return compile_ring(net); }, &from_disk, &computed);
  EXPECT_TRUE(computed);
  EXPECT_FALSE(from_disk);
  EXPECT_GT(first->schedule.degree(), 0);

  computed = true;
  const auto second = cache.get_or_compute(
      key,
      [&]() -> apps::CachedCompilation {
        ADD_FAILURE() << "compute ran on a warm key";
        return {};
      },
      &from_disk, &computed);
  EXPECT_FALSE(computed);
  EXPECT_FALSE(from_disk);
  EXPECT_EQ(text_of(net, second->schedule), text_of(net, first->schedule));
  EXPECT_EQ(cache.stats().misses, 1);
  EXPECT_EQ(cache.stats().memory_hits, 1);
}

TEST(ScheduleCache, GetOrComputeLeaderFailureDoesNotPoisonTheKey) {
  topo::TorusNetwork net(4, 4);
  apps::ScheduleCache cache(net);
  const auto key = apps::make_cache_key(net, patterns::ring(net.node_count()),
                                        "combined", sched::SchedOptions{});

  EXPECT_THROW(cache.get_or_compute(
                   key, [&]() -> apps::CachedCompilation {
                     throw std::runtime_error("scheduler exploded");
                   }),
               std::runtime_error);

  // The failed flight must not wedge the key: the next caller computes.
  bool computed = false;
  const auto value = cache.get_or_compute(
      key, [&] { return compile_ring(net); }, nullptr, &computed);
  EXPECT_TRUE(computed);
  EXPECT_GT(value->schedule.degree(), 0);
  EXPECT_NE(cache.lookup(key), nullptr);
}

TEST(ScheduleCache, HashIsStableAcrossProcessesByConstruction) {
  // FNV-1a of a pinned canonical string: the on-disk addresses must never
  // change between builds, or every persisted cache silently goes cold.
  topo::TorusNetwork net(4, 4);
  const auto key = apps::make_cache_key(net, {{0, 1}}, "combined",
                                        sched::SchedOptions{});
  EXPECT_EQ(key.hash(), apps::CacheKey{key}.hash());
  const auto canonical = key.canonical();
  EXPECT_NE(canonical.find("torus(4x4)"), std::string::npos);
  EXPECT_NE(canonical.find("combined"), std::string::npos);
  EXPECT_NE(canonical.find("0>1"), std::string::npos);
}

TEST(ScheduleCache, TwoHitsShareOneEntry) {
  // A hit is a reference to the stored entry, not a copy of it.
  topo::TorusNetwork net(4, 4);
  apps::ScheduleCache cache(net);
  const auto key = apps::make_cache_key(net, patterns::ring(net.node_count()),
                                        "combined", sched::SchedOptions{});
  cache.store(key, compile_ring(net));
  const auto first = cache.lookup(key);
  const auto second = cache.lookup(key);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first.get(), second.get());
  const auto third = cache.get_or_compute(key, [&]() -> apps::CachedCompilation {
    ADD_FAILURE() << "compute ran on a warm key";
    return {};
  });
  EXPECT_EQ(third.get(), first.get());
}

TEST(ScheduleCache, EntryHeldByAReaderSurvivesEviction) {
  topo::TorusNetwork net(4, 4);
  apps::ScheduleCache::Options options;
  options.capacity = 1;
  apps::ScheduleCache cache(net, options);
  const auto key_of = [&](std::int64_t frame) {
    return apps::make_cache_key(net, patterns::ring(net.node_count()),
                                "combined", sched::SchedOptions{}, frame);
  };
  const auto value = compile_ring(net);
  cache.store(key_of(1), value);
  const auto held = cache.lookup(key_of(1));
  ASSERT_NE(held, nullptr);

  cache.store(key_of(2), value);  // capacity 1: evicts frame 1
  EXPECT_EQ(cache.stats().evictions, 1);
  EXPECT_EQ(cache.lookup(key_of(1)), nullptr);
  EXPECT_EQ(held->schedule_text, text_of(net, value.schedule));
  EXPECT_EQ(held->lower_bound, value.lower_bound);
  EXPECT_EQ(held->winner, value.winner);
}

TEST(ScheduleCache, CanonicalKeyTextIsPinned) {
  // The canonical text names on-disk entries (through its FNV-1a hash) and
  // is stored inside each one; any byte drift strands every existing
  // cache directory.
  topo::TorusNetwork net(4, 4);
  const auto key = apps::make_cache_key(net, {{0, 1}, {15, 3}}, "combined",
                                        sched::SchedOptions{}, -7);
  EXPECT_EQ(key.canonical(),
            "optdm-cache-key/1\n"
            "topology torus(4x4)|v16|l96\n"
            "scheduler combined\n"
            "options sched-options/1;priority=0;ils=200,2,277;exact=64,20000000\n"
            "frame -7\n"
            "pattern 2\n"
            "0>1\n"
            "15>3\n");
  EXPECT_EQ(key.hash(), 0x9573dcf1d9e7d373ULL);
}

/// Random derangement of `nodes` nodes: a permutation pattern with no
/// fixed point, the shape of the paper's frequent patterns.
core::RequestSet random_derangement(int nodes, std::mt19937& rng) {
  std::vector<int> dst(static_cast<std::size_t>(nodes));
  for (;;) {
    std::iota(dst.begin(), dst.end(), 0);
    std::shuffle(dst.begin(), dst.end(), rng);
    bool fixed = false;
    for (int i = 0; i < nodes; ++i) fixed |= dst[static_cast<std::size_t>(i)] == i;
    if (!fixed) break;
  }
  core::RequestSet pattern;
  for (int i = 0; i < nodes; ++i)
    pattern.push_back({i, dst[static_cast<std::size_t>(i)]});
  return pattern;
}

/// `count` random (src, dst) pairs, src != dst.
core::RequestSet random_pairs(int nodes, int count, std::mt19937& rng) {
  std::uniform_int_distribution<int> node(0, nodes - 1);
  core::RequestSet pattern;
  while (static_cast<int>(pattern.size()) < count) {
    const int src = node(rng);
    const int dst = node(rng);
    if (src != dst) pattern.push_back({src, dst});
  }
  return pattern;
}

TEST(ScheduleCache, StripePlacementIsBalancedOnPermutationAndRandomKeys) {
  // Raw FNV-1a bit 0 is the XOR of the low bits of every key byte, so it
  // is the same for every permutation key (equal digit multisets) and
  // `hash & (n - 1)` left half the stripes empty.  Placement now mixes
  // the hash first: no stripe may fall below half its fair share.
  topo::TorusNetwork net(8, 8);
  constexpr int kKeysPerKind = 4096;
  std::mt19937 rng(2024);
  std::vector<apps::CacheKey> derangements;
  std::vector<apps::CacheKey> pairs;
  for (int i = 0; i < kKeysPerKind; ++i) {
    derangements.push_back(apps::make_cache_key(
        net, random_derangement(net.node_count(), rng), "combined",
        sched::SchedOptions{}));
    pairs.push_back(apps::make_cache_key(
        net, random_pairs(net.node_count(), 1 + i % 96, rng), "combined",
        sched::SchedOptions{}));
  }
  const auto raw_bit0 = derangements.front().hash() & 1u;
  for (const auto& key : derangements) ASSERT_EQ(key.hash() & 1u, raw_bit0);

  for (std::size_t stripes = 2; stripes <= 64; stripes *= 2) {
    apps::ScheduleCache::Options options;
    options.shards = stripes;
    const apps::ScheduleCache cache(net, options);
    for (const auto* keys : {&derangements, &pairs}) {
      std::vector<int> load(stripes, 0);
      for (const auto& key : *keys) ++load[cache.shard_for(key)];
      const int fair = kKeysPerKind / static_cast<int>(stripes);
      const int least = *std::min_element(load.begin(), load.end());
      EXPECT_GE(least, fair / 2)
          << stripes << " stripes, "
          << (keys == &derangements ? "derangement" : "random-pair")
          << " keys: least-loaded stripe got " << least << " of fair " << fair;
    }
  }
}

}  // namespace
