#include "apps/sched_cache.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>
#include <vector>

#include "io/cache_io.hpp"
#include "io/pattern_io.hpp"
#include "util/failure.hpp"
#include "util/hash.hpp"

namespace optdm::apps {

namespace {

std::string hex64(std::uint64_t value) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = kDigits[value & 0xf];
    value >>= 4;
  }
  return out;
}

bool write_all(int fd, const char* data, std::size_t size) {
  while (size > 0) {
    const ssize_t n = ::write(fd, data, size);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

bool ends_with(std::string_view text, std::string_view suffix) {
  return text.size() >= suffix.size() &&
         text.compare(text.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// Extracts the `topology <fingerprint>` line from a canonical key string
/// (second line of the `optdm-cache-key/1` format); empty on any mismatch.
std::string key_topology(const std::string& canonical) {
  constexpr std::string_view kPrefix = "topology ";
  const auto first_nl = canonical.find('\n');
  if (first_nl == std::string::npos) return {};
  const auto start = first_nl + 1;
  if (canonical.compare(start, kPrefix.size(), kPrefix) != 0) return {};
  const auto end = canonical.find('\n', start);
  if (end == std::string::npos) return {};
  const auto value = start + kPrefix.size();
  return canonical.substr(value, end - value);
}

std::size_t round_up_pow2(std::size_t value) {
  std::size_t pow2 = 1;
  while (pow2 < value) pow2 <<= 1;
  return pow2;
}

}  // namespace

std::string topology_fingerprint(const topo::Network& net) {
  return net.name() + "|v" + std::to_string(net.vertex_count()) + "|l" +
         std::to_string(net.link_count());
}

std::string CacheKey::canonical() const {
  // One buffer sized for the worst case, filled with `std::to_chars`; the
  // bytes match the historical ostream rendering (plain decimal integers),
  // so on-disk entry names stay valid.  A request line is at most two
  // 11-character integers plus '>' and '\n'.
  constexpr std::string_view kHeader = "optdm-cache-key/1\ntopology ";
  std::string out(kHeader.size() + topology.size() + scheduler.size() +
                      options.size() + 96 + pattern.size() * 24,
                  '\0');
  char* cursor = out.data();
  char* const end = cursor + out.size();
  const auto text = [&](std::string_view part) {
    cursor = std::copy(part.begin(), part.end(), cursor);
  };
  const auto decimal = [&](auto value) {
    cursor = std::to_chars(cursor, end, value).ptr;
  };
  text(kHeader);
  text(topology);
  text("\nscheduler ");
  text(scheduler);
  text("\noptions ");
  text(options);
  text("\nframe ");
  decimal(frame);
  text("\npattern ");
  decimal(pattern.size());
  text("\n");
  for (const auto& request : pattern) {
    decimal(request.src);
    *cursor++ = '>';
    decimal(request.dst);
    *cursor++ = '\n';
  }
  out.resize(static_cast<std::size_t>(cursor - out.data()));
  return out;
}

std::uint64_t CacheKey::hash() const { return util::fnv1a64(canonical()); }

CacheKey make_cache_key(const topo::Network& net,
                        const core::RequestSet& pattern,
                        std::string_view scheduler,
                        const sched::SchedOptions& options,
                        std::int64_t frame) {
  CacheKey key;
  key.topology = topology_fingerprint(net);
  key.scheduler = std::string(scheduler);
  key.options = options.fingerprint();
  key.frame = frame;
  key.pattern = pattern;
  return key;
}

ScheduleCache::ScheduleCache(const topo::Network& net)
    : ScheduleCache(net, Options()) {}

ScheduleCache::ScheduleCache(const topo::Network& net, Options options)
    : net_(&net),
      options_(std::move(options)),
      fingerprint_(topology_fingerprint(net)) {
  if (options_.capacity == 0) options_.capacity = 1;
  if (options_.shards == 0) options_.shards = 1;
  // 1024 is far past any plausible worker count; the cap keeps a typo'd
  // shard count from allocating a million mutexes.
  options_.shards = std::min<std::size_t>(round_up_pow2(options_.shards), 1024);
  shard_capacity_ = std::max<std::size_t>(1, options_.capacity / options_.shards);
  shards_.reserve(options_.shards);
  for (std::size_t i = 0; i < options_.shards; ++i)
    shards_.push_back(std::make_unique<Shard>());
}

CachedPtr ScheduleCache::lookup(const CacheKey& key, bool* from_disk) {
  if (from_disk) *from_disk = false;
  std::string canonical = key.canonical();
  const std::uint64_t hash = util::fnv1a64(canonical);
  Shard& shard = *shards_[shard_index(hash)];
  std::lock_guard lock(shard.mutex);
  if (key.topology != fingerprint_) {
    ++shard.stats.misses;
    return nullptr;
  }
  if (const auto it = shard.index.find(canonical); it != shard.index.end()) {
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    ++shard.stats.memory_hits;
    return it->second->value;
  }
  if (!options_.disk_dir.empty()) {
    if (auto loaded = disk_lookup(shard, canonical, hash)) {
      ++shard.stats.disk_hits;
      if (from_disk) *from_disk = true;
      insert_locked(shard, std::move(canonical), loaded);
      return loaded;
    }
  }
  ++shard.stats.misses;
  return nullptr;
}

CachedPtr ScheduleCache::get_or_compute(
    const CacheKey& key, const std::function<CachedCompilation()>& compute,
    bool* from_disk, bool* computed, std::int64_t* quarantined) {
  if (from_disk) *from_disk = false;
  if (computed) *computed = false;
  if (quarantined) *quarantined = 0;
  std::string canonical = key.canonical();
  const std::uint64_t hash = util::fnv1a64(canonical);
  Shard& shard = *shards_[shard_index(hash)];
  std::unique_lock lock(shard.mutex);

  if (key.topology != fingerprint_) {
    // Foreign key: uncacheable here.  Count the miss and compute without
    // entering the single-flight table (nothing could ever satisfy a
    // waiter for it).
    ++shard.stats.misses;
    lock.unlock();
    if (computed) *computed = true;
    return std::make_shared<const CachedCompilation>(compute());
  }

  for (;;) {
    if (const auto it = shard.index.find(canonical); it != shard.index.end()) {
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      ++shard.stats.memory_hits;
      return it->second->value;
    }
    if (shard.inflight.count(canonical) == 0) break;
    // Another caller is compiling this key right now; wait for it to land
    // (or fail — then we take over via the loop).
    shard.ready.wait(lock);
  }

  if (!options_.disk_dir.empty()) {
    // The shard lock is held across the probe, so the quarantine delta is
    // this call's own.
    const std::int64_t quarantined_before = shard.stats.disk_quarantined;
    auto loaded = disk_lookup(shard, canonical, hash);
    if (quarantined)
      *quarantined = shard.stats.disk_quarantined - quarantined_before;
    if (loaded) {
      ++shard.stats.disk_hits;
      if (from_disk) *from_disk = true;
      insert_locked(shard, std::move(canonical), loaded);
      return loaded;
    }
  }

  // Leader: claim the key, compile outside the lock, publish, wake waiters.
  ++shard.stats.misses;
  shard.inflight.insert(canonical);
  lock.unlock();

  CachedPtr value;
  try {
    CachedCompilation computed_value = compute();
    memoize_text(computed_value);
    value = std::make_shared<const CachedCompilation>(std::move(computed_value));
  } catch (...) {
    lock.lock();
    shard.inflight.erase(canonical);
    // Wake everyone, not one: the first waiter becomes the new leader and
    // the rest re-queue behind it.
    shard.ready.notify_all();
    throw;
  }
  if (computed) *computed = true;

  lock.lock();
  shard.inflight.erase(canonical);
  insert_locked(shard, std::move(canonical), value);
  ++shard.stats.insertions;
  if (!options_.disk_dir.empty()) disk_store(shard.lru.front(), hash);
  shard.ready.notify_all();
  return value;
}

void ScheduleCache::store(const CacheKey& key, const CachedCompilation& value) {
  if (key.topology != fingerprint_) return;
  std::string canonical = key.canonical();
  const std::uint64_t hash = util::fnv1a64(canonical);
  Shard& shard = *shards_[shard_index(hash)];

  // Serialize before taking the lock — the text is pure function of the
  // schedule, and this is the expensive part of a store.
  CachedCompilation copy = value;
  memoize_text(copy);
  auto entry = std::make_shared<const CachedCompilation>(std::move(copy));

  std::lock_guard lock(shard.mutex);
  if (const auto it = shard.index.find(canonical); it != shard.index.end()) {
    // Readers still holding the old entry keep it; new hits see this one.
    it->second->value = std::move(entry);
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  } else {
    insert_locked(shard, std::move(canonical), std::move(entry));
    ++shard.stats.insertions;
  }
  if (!options_.disk_dir.empty()) disk_store(shard.lru.front(), hash);
}

void ScheduleCache::memoize_text(CachedCompilation& value) const {
  if (!value.schedule_text.empty()) return;
  std::ostringstream text;
  io::write_schedule(text, *net_, value.schedule);
  value.schedule_text = text.str();
}

CacheStats ScheduleCache::stats() const {
  CacheStats total;
  for (const auto& shard : shards_) {
    std::lock_guard lock(shard->mutex);
    total += shard->stats;
  }
  return total;
}

CacheStats ScheduleCache::shard_stats(std::size_t shard) const {
  const Shard& s = *shards_.at(shard);
  std::lock_guard lock(s.mutex);
  return s.stats;
}

void ScheduleCache::insert_locked(Shard& shard, std::string canonical,
                                  CachedPtr value) {
  while (shard.lru.size() >= shard_capacity_) {
    shard.index.erase(shard.lru.back().canonical);
    shard.lru.pop_back();
    ++shard.stats.evictions;
  }
  shard.lru.push_front(Entry{std::move(canonical), std::move(value)});
  shard.index.emplace(std::string_view(shard.lru.front().canonical),
                      shard.lru.begin());
}

std::string ScheduleCache::entry_path(std::uint64_t hash) const {
  return (std::filesystem::path(options_.disk_dir) / (hex64(hash) + ".json"))
      .string();
}

CachedPtr ScheduleCache::disk_lookup(Shard& shard, const std::string& canonical,
                                     std::uint64_t hash) {
  const std::string path = entry_path(hash);
  std::optional<io::CacheEntry> entry;
  {
    std::ifstream in(path, std::ios::binary);
    if (!in) return nullptr;  // absent: a plain miss, not a reject
    entry = io::read_cache_entry(in);
  }
  if (!entry) {
    // Corrupt / truncated / wrong schema (util::FailureCode
    // kCacheEntryCorrupt): move the evidence aside so the next store can
    // commit a clean replacement without racing a re-read of the wreck.
    ++shard.stats.disk_rejects;
    quarantine_locked(path, shard.stats);
    return nullptr;
  }
  // Hash collision or a stale file from a different run configuration
  // (kCacheEntryStale): the stored full key is the ground truth, the
  // filename is just an address.
  if (entry->key != canonical) {
    ++shard.stats.disk_rejects;
    quarantine_locked(path, shard.stats);
    return nullptr;
  }

  // The winner field is a closed vocabulary ("" for schedulers without
  // provenance, else a combined-scheduler branch name).  Anything else is
  // a corrupt or hand-edited document (kCacheEntryCorrupt) — rejecting it
  // here keeps `from_cached` from silently coercing garbage to kColoring.
  if (!entry->winner.empty() && entry->winner != "coloring" &&
      entry->winner != "ordered-aapc") {
    ++shard.stats.disk_rejects;
    quarantine_locked(path, shard.stats);
    return nullptr;
  }

  CachedCompilation loaded;
  loaded.lower_bound = entry->lower_bound;
  loaded.winner = std::move(entry->winner);
  try {
    std::istringstream text(entry->schedule_text);
    loaded.schedule = io::read_schedule(text, *net_);
  } catch (const std::exception&) {
    // The schedule body failed link-by-link revalidation against the
    // network — tampered or mismatched.  Quarantine; the next store
    // rewrites the address.
    ++shard.stats.disk_rejects;
    quarantine_locked(path, shard.stats);
    return nullptr;
  }
  // The document's schedule text is the `write_schedule` serialization the
  // store committed; revalidation just proved it parses back against this
  // network, so it is exactly the text a hit should serve.
  loaded.schedule_text = std::move(entry->schedule_text);
  return std::make_shared<const CachedCompilation>(std::move(loaded));
}

void ScheduleCache::quarantine_locked(const std::string& path,
                                      CacheStats& stats) {
  std::error_code ec;
  // rename(2) replaces an existing `.quarantined` from an earlier incident
  // atomically — we keep the most recent wreck, which is the useful one.
  std::filesystem::rename(path, path + ".quarantined", ec);
  if (ec) {
    // Quarantine is forensic, correctness is deletion: the entry must not
    // be re-read as corrupt forever.
    std::filesystem::remove(path, ec);
    return;
  }
  ++stats.disk_quarantined;
}

void ScheduleCache::disk_store(const Entry& entry, std::uint64_t hash) {
  std::error_code ec;
  std::filesystem::create_directories(options_.disk_dir, ec);
  if (ec) return;  // disk tier is best-effort; memory tier already updated

  io::CacheEntry serialized;
  const CachedCompilation& value = *entry.value;
  serialized.key = entry.canonical;
  serialized.lower_bound = value.lower_bound;
  serialized.winner = value.winner;
  // Every stored entry carries its memoized text; the document wants the
  // same bytes.
  serialized.schedule_text = value.schedule_text;

  std::ostringstream doc;
  io::write_cache_entry(doc, serialized);
  const std::string text = doc.str();

  // Commit protocol: exclusive temp -> write -> fsync -> atomic rename.
  // The pid in the temp name keeps concurrent shard workers sharing one
  // cache directory off each other's temps; O_EXCL turns any remaining
  // collision (pid reuse after a crash) into an error instead of an
  // interleaved file; the fsync bounds what a power cut can tear to the
  // temp, so readers of the final address see the old document or the new
  // one — never a prefix.  The whole tier stays best-effort: the memory
  // tier is already updated, so every bail-out below is just "no persist".
  const std::string final_path = entry_path(hash);
  const std::string tmp_path =
      final_path + ".tmp." + std::to_string(::getpid());
  int fd = ::open(tmp_path.c_str(), O_CREAT | O_EXCL | O_WRONLY, 0644);
  if (fd < 0 && errno == EEXIST) {
    // Our own pid's leftover from a crashed earlier run: reclaim it.
    ::unlink(tmp_path.c_str());
    fd = ::open(tmp_path.c_str(), O_CREAT | O_EXCL | O_WRONLY, 0644);
  }
  if (fd < 0) return;
  bool ok = write_all(fd, text.data(), text.size());
  ok = (::fsync(fd) == 0) && ok;
  ok = (::close(fd) == 0) && ok;
  if (!ok) {
    ::unlink(tmp_path.c_str());
    return;
  }
  std::filesystem::rename(tmp_path, final_path, ec);
  if (ec) std::filesystem::remove(tmp_path, ec);
}

ScheduleCache::ScrubReport ScheduleCache::scrub() {
  // The one whole-cache operation: hold every shard so no lookup or store
  // races the renames below.  Index order is the lock order everywhere.
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(shards_.size());
  for (auto& shard : shards_) locks.emplace_back(shard->mutex);
  // Scrub findings are whole-directory, not per-key; attribute them to
  // shard 0 — the aggregate `stats()` stays exact.
  CacheStats& scrub_stats = shards_.front()->stats;

  ScrubReport report;
  if (options_.disk_dir.empty()) return report;

  std::error_code ec;
  // Snapshot the listing first: the pass renames and deletes, and mutating
  // a directory under an active iterator is implementation-defined.
  std::vector<std::filesystem::path> paths;
  for (std::filesystem::directory_iterator it(options_.disk_dir, ec), end;
       !ec && it != end; it.increment(ec)) {
    if (it->is_regular_file(ec)) paths.push_back(it->path());
  }

  for (const auto& path : paths) {
    const std::string name = path.filename().string();
    if (ends_with(name, ".quarantined")) continue;  // already dealt with
    if (name.find(".tmp.") != std::string::npos) {
      // A commit temp with no living writer is a crash leftover; the
      // not-intended-to-race-writers contract makes deletion safe.
      std::filesystem::remove(path, ec);
      if (!ec) ++report.removed_tmp;
      continue;
    }
    if (!ends_with(name, ".json")) continue;  // not ours

    ++report.scanned;
    std::optional<io::CacheEntry> entry;
    {
      std::ifstream in(path, std::ios::binary);
      if (in) entry = io::read_cache_entry(in);
    }
    if (!entry) {
      quarantine_locked(path.string(), scrub_stats);
      ++report.quarantined;
      continue;
    }
    if (key_topology(entry->key) != fingerprint_) {
      // A different network's entry in a shared directory — valid JSON,
      // but we cannot revalidate its schedule.  Leave it for its owner.
      ++report.foreign;
      continue;
    }
    try {
      std::istringstream text(entry->schedule_text);
      io::read_schedule(text, *net_);
    } catch (const std::exception&) {
      quarantine_locked(path.string(), scrub_stats);
      ++report.quarantined;
      continue;
    }
    const std::string expected = hex64(util::fnv1a64(entry->key)) + ".json";
    if (name != expected) {
      // Misaddressed (renamed by hand, partial restore): move it back to
      // its content address unless a document already lives there — then
      // the resident copy wins and the stray is quarantined as stale.
      const auto target = path.parent_path() / expected;
      if (std::filesystem::exists(target, ec)) {
        quarantine_locked(path.string(), scrub_stats);
        ++report.quarantined;
      } else {
        std::filesystem::rename(path, target, ec);
        if (ec) {
          quarantine_locked(path.string(), scrub_stats);
          ++report.quarantined;
        } else {
          ++report.repaired;
        }
      }
      continue;
    }
    ++report.valid;
  }
  return report;
}

}  // namespace optdm::apps
