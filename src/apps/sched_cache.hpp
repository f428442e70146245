#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/schedule.hpp"
#include "sched/scheduler.hpp"
#include "topo/network.hpp"
#include "util/hash.hpp"

/// \file sched_cache.hpp
/// Content-addressed schedule cache — the memoization layer of the
/// compilation pipeline.
///
/// The paper's premise is that communication patterns are static and known
/// at compile time, so scheduling work should be paid once and reused.
/// `ScheduleCache` makes that literal: a compilation is addressed by a
/// stable key over everything that determines its output — the topology
/// fingerprint, the pattern (order included: the greedy pass is
/// order-sensitive), the K / frame constraint, the scheduler id, and the
/// scheduler options fingerprint — and a warm hit returns a
/// byte-identical `Schedule` to the cold compile it memoizes.
///
/// Two tiers:
///  * an in-memory tier (always on; capacity-bounded), **striped** over
///    `Options::shards` independent LRU shards so concurrent requests
///    against different keys never serialize on one mutex (the service
///    daemon's hot path).  A key's shard is the low bits of its FNV-1a
///    hash after a `util::mix64` finalizer (raw FNV-1a low bits are
///    constant across permutation keys); the raw hash names its on-disk
///    entry, so two shards never touch the same file.  `shards = 1` (the
///    default) is behaviorally identical to the historical single-lock
///    cache: one mutex, one LRU list, one capacity budget.
///
/// Entries are immutable and shared: a hit hands out a
/// `std::shared_ptr<const CachedCompilation>` (a reference count, not a
/// copy), and a reader holding one keeps it valid through any later
/// eviction or refresh of its key.
///  * an optional on-disk tier (one versioned JSON document per entry,
///    `io/cache_io.hpp`); corrupt, stale, or mismatched entries are
///    **quarantined** — renamed to `<entry>.quarantined` so the evidence
///    survives for post-mortem — then treated as misses and rewritten by
///    the next store.
///
/// The disk tier is crash-safe and multi-process-safe.  A store commits
/// via exclusive-temp / write / fsync / rename: the temp name embeds the
/// writer's pid (shard workers sharing one `--cache-dir` never collide),
/// `O_EXCL` guarantees no two writers interleave into one temp file, the
/// fsync bounds what a power cut can tear, and the atomic rename means a
/// reader sees the old document or the new one — never a prefix.
/// `scrub()` is the offline repair pass over a cache directory.
///
/// All operations are thread-safe.  Locking is per shard: a lookup or
/// store takes exactly one shard mutex; `stats()` aggregates the
/// per-shard counters; `scrub()` — the one whole-cache operation —
/// takes every shard mutex in index order.
///
/// `get_or_compute` is the service hot path: concurrent requests for the
/// same missing key are **single-flight** — the first caller compiles
/// outside the lock while the rest wait on the shard and then take a
/// memory hit, so T concurrent requests for one key pay one compile and
/// count exactly one miss (pinned by the concurrent stress test).

namespace optdm::apps {

/// Stable fingerprint of a network for cache keys: the topology name
/// (which encodes the dimensions) plus vertex and link counts.
std::string topology_fingerprint(const topo::Network& net);

/// The full identity of one compilation.
struct CacheKey {
  /// `topology_fingerprint` of the target network.
  std::string topology;
  /// Registry name of the scheduler ("combined", "greedy", ...).
  std::string scheduler;
  /// `sched::SchedOptions::fingerprint()` of the options used.
  std::string options;
  /// Multiplexing-degree / frame constraint the compilation targets
  /// (0 = the scheduler picks the degree freely).
  std::int64_t frame = 0;
  /// The pattern, in request order.
  core::RequestSet pattern;

  /// Canonical string serialization; two keys are equal iff their
  /// canonical strings are equal.  The text is pinned: it is hashed into
  /// on-disk entry names and stored inside each entry.
  std::string canonical() const;

  /// Stable 64-bit FNV-1a hash of `canonical()`; names on-disk entries
  /// and, through `util::mix64`, selects the in-memory shard.
  std::uint64_t hash() const;
};

/// Builds the key for compiling `pattern` on `net` with `scheduler`.
CacheKey make_cache_key(const topo::Network& net,
                        const core::RequestSet& pattern,
                        std::string_view scheduler,
                        const sched::SchedOptions& options,
                        std::int64_t frame = 0);

/// One cached compilation: the schedule plus the cold compile's
/// by-products, so a warm hit skips re-routing as well as re-scheduling.
struct CachedCompilation {
  core::Schedule schedule;
  /// Degree lower bound (link congestion / clique) for the pattern.
  int lower_bound = 0;
  /// Winning branch of the combined scheduler; empty when not applicable.
  std::string winner;
  /// Memoized `io::write_schedule` text of `schedule`; the cache fills it
  /// on every store, so a hit serves the serialized form (the service
  /// engine's response fast path).  Byte-identical to serializing
  /// `schedule`.
  std::string schedule_text;
};

/// How the cache hands out entries: shared and immutable, so a hit takes a
/// reference instead of copying the schedule and its text.
using CachedPtr = std::shared_ptr<const CachedCompilation>;

/// Monotonic counters of one cache's traffic (whole cache, or one shard
/// via `shard_stats`).
struct CacheStats {
  std::int64_t memory_hits = 0;
  std::int64_t disk_hits = 0;
  std::int64_t misses = 0;
  std::int64_t insertions = 0;
  std::int64_t evictions = 0;
  /// On-disk entries ignored as corrupt, version-mismatched, or stale
  /// (key material differed from the requested key).
  std::int64_t disk_rejects = 0;
  /// Entries successfully moved aside to `<entry>.quarantined` — by
  /// lookups that rejected them (then also counted in `disk_rejects`) or
  /// by a `scrub()` pass.  Quarantine is best-effort (a failed rename
  /// falls back to deletion, uncounted).
  std::int64_t disk_quarantined = 0;

  std::int64_t hits() const noexcept { return memory_hits + disk_hits; }

  CacheStats& operator+=(const CacheStats& other) noexcept {
    memory_hits += other.memory_hits;
    disk_hits += other.disk_hits;
    misses += other.misses;
    insertions += other.insertions;
    evictions += other.evictions;
    disk_rejects += other.disk_rejects;
    disk_quarantined += other.disk_quarantined;
    return *this;
  }
};

/// Two-tier content-addressed cache of compiled schedules for one
/// network.  Thread-safe; a hit shares the stored entry (`CachedPtr`)
/// instead of copying it.
class ScheduleCache {
 public:
  struct Options {
    /// In-memory LRU capacity (entries), split evenly across the shards
    /// (each shard budgets `max(1, capacity / shards)`).  Minimum 1.
    std::size_t capacity = 256;
    /// In-memory stripe count; rounded up to a power of two.  1 (the
    /// default) reproduces the single-lock cache exactly; the service
    /// engine uses 8.
    std::size_t shards = 1;
    /// Directory of the on-disk tier; empty disables it.  Created on
    /// first store if missing.
    std::string disk_dir;
  };

  /// `net` must outlive the cache; the disk tier revalidates loaded
  /// schedules link by link against it.
  explicit ScheduleCache(const topo::Network& net);
  ScheduleCache(const topo::Network& net, Options options);

  /// Returns the cached compilation for `key`, or null.  Checks the
  /// memory tier, then the disk tier (a disk hit is promoted into
  /// memory).  A key whose topology fingerprint is not this cache's
  /// network is always a miss.  When `from_disk` is non-null it is set to
  /// whether the hit came from the disk tier — per-lookup provenance that
  /// stays exact when many requests share one cache (the aggregate
  /// `stats()` deltas interleave under concurrency).
  CachedPtr lookup(const CacheKey& key, bool* from_disk = nullptr);

  /// Single-flight get-or-compile: returns the cached compilation for
  /// `key`, calling `compute` (outside any lock) to produce it on a miss.
  /// Concurrent callers for the same missing key wait for the first
  /// caller's compute instead of duplicating it, then count as memory
  /// hits.  On return, `*computed` says whether *this* call paid the
  /// compute, `*from_disk` whether its hit came from the disk tier, and
  /// `*quarantined` how many on-disk documents this call itself moved
  /// aside (exact per call, unlike `stats()` deltas under concurrency).
  /// Never returns null.  If `compute` throws, the exception propagates
  /// to this caller only and one waiter (if any) takes over the compute.
  CachedPtr get_or_compute(const CacheKey& key,
                           const std::function<CachedCompilation()>& compute,
                           bool* from_disk = nullptr, bool* computed = nullptr,
                           std::int64_t* quarantined = nullptr);

  /// Inserts (or refreshes) an entry; evicts the least-recently-used
  /// entry of the key's shard when over budget, and (when the disk tier
  /// is enabled) rewrites the on-disk document.
  void store(const CacheKey& key, const CachedCompilation& value);

  /// Aggregate traffic counters since construction (sum over shards).
  CacheStats stats() const;

  /// Stripe count actually in use (power of two).
  std::size_t shard_count() const noexcept { return shards_.size(); }

  /// The stripe `key` lives on: the low bits of `mix64(key.hash())`.
  std::size_t shard_for(const CacheKey& key) const {
    return shard_index(key.hash());
  }

  /// Traffic counters of one shard; the per-shard values sum exactly to
  /// `stats()` (pinned by tests and the service smoke).
  CacheStats shard_stats(std::size_t shard) const;

  /// What one `scrub()` pass found and did in the disk directory.
  struct ScrubReport {
    /// `.json` documents examined.
    std::int64_t scanned = 0;
    /// Documents that parsed, revalidated against the network, and sat at
    /// their content address.
    std::int64_t valid = 0;
    /// Valid documents found under the wrong filename (e.g. a directory
    /// restored from a partial backup) and renamed to their content
    /// address.
    std::int64_t repaired = 0;
    /// Corrupt or revalidation-failing documents moved to
    /// `<entry>.quarantined`.
    std::int64_t quarantined = 0;
    /// Leftover `*.tmp.<pid>` commit temps from crashed writers, deleted.
    std::int64_t removed_tmp = 0;
    /// Well-formed entries for a *different* topology, left untouched
    /// (the directory may legitimately be shared across networks).
    std::int64_t foreign = 0;
  };

  /// Offline validate-and-repair pass over the disk directory: deletes
  /// orphaned commit temps, quarantines documents that fail parsing or
  /// link-by-link schedule revalidation, and moves misaddressed valid
  /// entries back to their content address.  No-op (all-zero report) when
  /// the disk tier is disabled or the directory is unreadable.  Safe to
  /// run concurrently with lookups/stores in this process (it holds every
  /// shard lock); not intended to race other *writers* of the same
  /// directory.
  ScrubReport scrub();

  const Options& options() const noexcept { return options_; }
  const topo::Network& network() const noexcept { return *net_; }

 private:
  struct Entry {
    std::string canonical;
    CachedPtr value;
  };
  using Lru = std::list<Entry>;

  /// One stripe of the in-memory tier: its own lock, LRU budget, traffic
  /// counters, and single-flight table.  Keys map to shards by
  /// `shard_index`.
  struct Shard {
    mutable std::mutex mutex;
    /// Wakes `get_or_compute` waiters when an in-flight compute lands.
    std::condition_variable ready;
    Lru lru;  // front = most recent
    std::unordered_map<std::string_view, Lru::iterator> index;
    /// Canonical keys currently being computed by a `get_or_compute`
    /// leader (compute runs outside the lock; waiters block on `ready`).
    std::unordered_set<std::string> inflight;
    CacheStats stats;
  };

  std::size_t shard_index(std::uint64_t hash) const noexcept {
    return util::mix64(hash) & (shards_.size() - 1);
  }

  /// Reads, revalidates and returns the on-disk entry at `hash`'s
  /// address, quarantining it when it does not hold `canonical`'s
  /// compilation; null when absent or rejected.  Caller holds the lock.
  CachedPtr disk_lookup(Shard& shard, const std::string& canonical,
                        std::uint64_t hash);
  void disk_store(const Entry& entry, std::uint64_t hash);
  /// Moves a rejected on-disk document to `<path>.quarantined` (replacing
  /// any previous quarantine of the same entry) and counts it in `stats`.
  /// Falls back to deletion if the rename fails; never throws.  Caller
  /// holds the lock guarding `stats`.
  static void quarantine_locked(const std::string& path, CacheStats& stats);
  void insert_locked(Shard& shard, std::string canonical, CachedPtr value);
  /// Fills `schedule_text` when it is empty.
  void memoize_text(CachedCompilation& value) const;
  std::string entry_path(std::uint64_t hash) const;

  const topo::Network* net_;
  Options options_;
  std::string fingerprint_;
  /// Per-shard LRU budget: `max(1, capacity / shards)`.
  std::size_t shard_capacity_ = 1;

  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace optdm::apps
