#include "apps/pipeline.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "core/path.hpp"
#include "sched/bounds.hpp"
#include "sched/combined.hpp"
#include "util/parallel.hpp"

namespace optdm::apps {

namespace {

/// Canonical pattern serialization for phase deduplication.  Order is
/// preserved: the greedy pass is order-sensitive, so two permutations of
/// the same multiset are *different* compilations.
std::string pattern_key(const core::RequestSet& pattern) {
  std::ostringstream out;
  for (const auto& request : pattern)
    out << request.src << '>' << request.dst << '\n';
  return out.str();
}

/// Content fingerprint of one configuration: the sorted multiset of its
/// paths, each with its exact links.  Two configurations with equal
/// fingerprints program every switch register identically.
std::string config_fingerprint(const core::Configuration& config) {
  std::vector<std::string> paths;
  paths.reserve(config.size());
  for (const auto& path : config.paths()) {
    std::ostringstream out;
    out << path.request.src << '>' << path.request.dst << ':';
    for (const auto link : path.links) out << link << ',';
    paths.push_back(out.str());
  }
  std::sort(paths.begin(), paths.end());
  std::string fp;
  for (const auto& p : paths) {
    fp += p;
    fp += ';';
  }
  return fp;
}

std::vector<std::string> fingerprints_of(const core::Schedule& schedule) {
  std::vector<std::string> fps;
  fps.reserve(static_cast<std::size_t>(schedule.degree()));
  for (const auto& config : schedule.configurations())
    fps.push_back(config_fingerprint(config));
  return fps;
}

CachedCompilation to_cached(CompiledPhase phase, bool combined) {
  CachedCompilation cached;
  cached.schedule = std::move(phase.schedule);
  cached.lower_bound = phase.lower_bound;
  // Winner provenance only exists for the combined scheduler; other
  // schedulers store the empty string and round-trip it back to the
  // CompiledPhase default.
  if (combined) cached.winner = sched::to_string(phase.winner);
  return cached;
}

/// Closed vocabulary: "" (a scheduler without winner provenance) round-
/// trips to the CompiledPhase default; the two combined-scheduler branch
/// names map exactly.  Anything else is a corrupt entry that slipped past
/// the disk tier's validation — refuse to guess.
sched::CombinedWinner winner_of(const std::string& winner) {
  if (winner == "ordered-aapc") return sched::CombinedWinner::kOrderedAapc;
  if (winner.empty() || winner == "coloring")
    return sched::CombinedWinner::kColoring;
  throw std::invalid_argument("cache-entry-corrupt: unknown winner '" +
                              winner + "'");
}

PhaseCompilation from_cached(const CachedCompilation& cached) {
  PhaseCompilation result;
  result.phase.schedule = cached.schedule;
  result.phase.lower_bound = cached.lower_bound;
  result.phase.winner = winner_of(cached.winner);
  result.cache_hit = true;
  return result;
}

}  // namespace

std::int64_t StitchReport::saved(int iterations) const {
  std::int64_t internal = 0;
  for (const int shared : boundary_shared) internal += shared;
  const std::int64_t crossings = std::max(iterations, 0);
  const std::int64_t wraps = std::max(iterations - 1, 0);
  return crossings * internal + wraps * wrap_shared;
}

StitchReport stitch_program_greedy(CompiledProgram& compiled) {
  StitchReport report;
  auto& phases = compiled.phases;
  if (phases.empty()) return report;
  report.boundary_shared.assign(phases.size() - 1, 0);

  // Phase 0 is never reordered: it anchors the chain, and the first frame
  // of an execution loads all its configurations regardless.
  auto prev_fps = fingerprints_of(phases.front().schedule);
  for (std::size_t p = 1; p < phases.size(); ++p) {
    const core::Schedule& cur = phases[p].schedule;
    auto cur_fps = fingerprints_of(cur);
    const int degree = cur.degree();
    // Slots past the shorter frame never align (slot t runs configuration
    // t mod K), so matching is confined to the common window.
    const int window =
        std::min(static_cast<int>(prev_fps.size()), degree);

    // fingerprint -> this phase's configuration indices, ascending.
    std::unordered_map<std::string_view, std::vector<int>> pool;
    for (int i = degree - 1; i >= 0; --i)
      pool[cur_fps[static_cast<std::size_t>(i)]].push_back(i);

    std::vector<int> placement(static_cast<std::size_t>(degree), -1);
    std::vector<bool> placed(static_cast<std::size_t>(degree), false);
    int shared = 0;
    for (int j = 0; j < window; ++j) {
      const auto it = pool.find(prev_fps[static_cast<std::size_t>(j)]);
      if (it == pool.end() || it->second.empty()) continue;
      const int idx = it->second.back();
      it->second.pop_back();
      placement[static_cast<std::size_t>(j)] = idx;
      placed[static_cast<std::size_t>(idx)] = true;
      ++shared;
    }
    // Unmatched configurations fill the remaining slots in their original
    // relative order, keeping the pass deterministic.
    int next = 0;
    for (int j = 0; j < degree; ++j) {
      if (placement[static_cast<std::size_t>(j)] >= 0) continue;
      while (placed[static_cast<std::size_t>(next)]) ++next;
      placement[static_cast<std::size_t>(j)] = next;
      placed[static_cast<std::size_t>(next)] = true;
    }

    core::Schedule stitched;
    std::vector<std::string> new_fps(static_cast<std::size_t>(degree));
    for (int j = 0; j < degree; ++j) {
      const auto idx = static_cast<std::size_t>(
          placement[static_cast<std::size_t>(j)]);
      stitched.append(cur.configuration(static_cast<int>(idx)));
      new_fps[static_cast<std::size_t>(j)] = std::move(cur_fps[idx]);
    }
    phases[p].schedule = std::move(stitched);
    report.boundary_shared[p - 1] = shared;
    prev_fps = std::move(new_fps);
  }

  // Wrap-around boundary (last phase -> first phase of the next
  // iteration).  Phase 0 stays fixed, so only already-aligned slots count.
  const auto first_fps = fingerprints_of(phases.front().schedule);
  const std::size_t window = std::min(prev_fps.size(), first_fps.size());
  for (std::size_t j = 0; j < window; ++j)
    if (prev_fps[j] == first_fps[j]) ++report.wrap_shared;
  return report;
}

StitchReport stitch_program(CompiledProgram& compiled) {
  StitchReport report = stitch_program_greedy(compiled);
  auto& phases = compiled.phases;
  // Single-phase programs have no last-phase freedom (phase 0 is pinned);
  // the greedy result is already optimal there.
  if (phases.size() < 2) return report;

  // The greedy pass walked front to back, so the last phase's slots were
  // placed with only the previous boundary in mind.  Slots it matched
  // neither backward (previous phase) nor forward (wrap to phase 0) are
  // free to permute; lining them up with phase 0 turns wrap crossings
  // into elided reloads without disturbing a single existing match.
  core::Schedule& last = phases.back().schedule;
  auto last_fps = fingerprints_of(last);
  const auto first_fps = fingerprints_of(phases.front().schedule);
  const auto prev_fps =
      fingerprints_of(phases[phases.size() - 2].schedule);
  const int degree = last.degree();
  const int boundary_window =
      std::min(static_cast<int>(prev_fps.size()), degree);
  const int wrap_window =
      std::min(static_cast<int>(first_fps.size()), degree);

  std::vector<bool> matched(static_cast<std::size_t>(degree), false);
  for (int j = 0; j < boundary_window; ++j)
    if (last_fps[static_cast<std::size_t>(j)] ==
        prev_fps[static_cast<std::size_t>(j)])
      matched[static_cast<std::size_t>(j)] = true;
  for (int j = 0; j < wrap_window; ++j)
    if (last_fps[static_cast<std::size_t>(j)] ==
        first_fps[static_cast<std::size_t>(j)])
      matched[static_cast<std::size_t>(j)] = true;

  // fingerprint -> free slots currently holding it, smallest index last
  // (popped first) for determinism.
  std::unordered_map<std::string_view, std::vector<int>> pool;
  for (int i = degree - 1; i >= 0; --i)
    if (!matched[static_cast<std::size_t>(i)])
      pool[last_fps[static_cast<std::size_t>(i)]].push_back(i);

  std::vector<int> order(static_cast<std::size_t>(degree));
  for (int i = 0; i < degree; ++i) order[static_cast<std::size_t>(i)] = i;
  bool changed = false;
  for (int j = 0; j < wrap_window; ++j) {
    if (matched[static_cast<std::size_t>(j)]) continue;
    const auto it = pool.find(first_fps[static_cast<std::size_t>(j)]);
    if (it == pool.end() || it->second.empty()) continue;
    const int src = it->second.back();
    it->second.pop_back();
    matched[static_cast<std::size_t>(j)] = true;
    if (src == j) continue;
    // Swap the configurations at slots j and src; slot src now holds j's
    // old fingerprint, so retarget its pool listing.
    std::swap(order[static_cast<std::size_t>(j)],
              order[static_cast<std::size_t>(src)]);
    std::swap(last_fps[static_cast<std::size_t>(j)],
              last_fps[static_cast<std::size_t>(src)]);
    auto& displaced = pool[last_fps[static_cast<std::size_t>(src)]];
    for (int& slot : displaced)
      if (slot == j) slot = src;
    changed = true;
  }

  if (changed) {
    core::Schedule reordered;
    for (int j = 0; j < degree; ++j)
      reordered.append(last.configuration(order[static_cast<std::size_t>(j)]));
    last = std::move(reordered);
  }

  // Recount the two boundaries the pass could have touched by direct
  // comparison — exact, and never below the greedy count (matched slots
  // were never moved).
  int boundary_shared = 0;
  for (int j = 0; j < boundary_window; ++j)
    if (last_fps[static_cast<std::size_t>(j)] ==
        prev_fps[static_cast<std::size_t>(j)])
      ++boundary_shared;
  report.boundary_shared.back() = boundary_shared;
  int wrap_shared = 0;
  for (int j = 0; j < wrap_window; ++j)
    if (last_fps[static_cast<std::size_t>(j)] ==
        first_fps[static_cast<std::size_t>(j)])
      ++wrap_shared;
  report.wrap_shared = wrap_shared;
  return report;
}

Pipeline::Pipeline(const topo::TorusNetwork& net, PipelineOptions options)
    : net_(&net),
      options_(std::move(options)),
      scheduler_(&sched::registry().at(options_.scheduler)),
      topology_fingerprint_(topology_fingerprint(net)),
      options_fingerprint_(options_.sched.fingerprint()) {
  // The single-pattern compiler front-ends the combined scheduler with a
  // precomputed AAPC decomposition; other schedulers don't need it.
  if (scheduler_->name() == "combined")
    compiler_ = std::make_unique<CommCompiler>(net);
  if (options_.use_cache) {
    ScheduleCache::Options cache_options;
    cache_options.capacity = options_.cache_capacity;
    cache_options.shards = options_.cache_shards;
    cache_options.disk_dir = options_.cache_dir;
    cache_ = std::make_unique<ScheduleCache>(net, std::move(cache_options));
  }
}

Pipeline::~Pipeline() = default;

CompiledPhase Pipeline::cold_compile(const core::RequestSet& pattern,
                                     obs::SchedCounters* counters) const {
  if (compiler_) return compiler_->compile(pattern, counters);
  sched::SchedOptions local = options_.sched;
  local.counters = counters;
  CompiledPhase phase;
  phase.schedule = scheduler_->schedule(pattern, *net_, local);
  const auto paths = core::route_all(*net_, pattern);
  phase.lower_bound = sched::multiplexing_lower_bound(*net_, paths);
  return phase;
}

CacheKey Pipeline::key_for(const core::RequestSet& pattern) const {
  CacheKey key;
  key.topology = topology_fingerprint_;
  key.scheduler = scheduler_->name();
  key.options = options_fingerprint_;
  key.pattern = pattern;
  return key;
}

PhaseCompilation Pipeline::compile_phase(const core::RequestSet& pattern) {
  return compile_phase(pattern, options_.sched.counters);
}

PhaseCompilation Pipeline::compile_phase(const core::RequestSet& pattern,
                                         obs::SchedCounters* counters) {
  const auto shared = compile_shared(pattern, counters);
  PhaseCompilation result = from_cached(*shared.entry);
  result.cache_hit = shared.cache_hit;
  result.disk_hit = shared.disk_hit;
  return result;
}

SharedCompilation Pipeline::compile_shared(const core::RequestSet& pattern,
                                           obs::SchedCounters* counters) {
  const bool combined = compiler_ != nullptr;
  SharedCompilation result;
  if (!cache_) {
    result.entry = std::make_shared<const CachedCompilation>(
        to_cached(cold_compile(pattern, counters), combined));
    result.winner = winner_of(result.entry->winner);
    return result;
  }

  // Single-flight get-or-compile: under concurrency, one caller pays the
  // cold compile per missing key and everyone else takes a memory hit.
  bool from_disk = false;
  bool computed = false;
  std::int64_t quarantined = 0;
  result.entry = cache_->get_or_compute(
      key_for(pattern),
      [&] { return to_cached(cold_compile(pattern, counters), combined); },
      &from_disk, &computed, &quarantined);
  result.winner = winner_of(result.entry->winner);
  result.cache_hit = !computed;
  result.disk_hit = from_disk;
  if (counters) {
    // This call's own cache traffic, from its lookup outcome — exact even
    // when concurrent requests share the cache (aggregate-stats deltas
    // would interleave).
    counters->cache_memory_hits = (result.cache_hit && !result.disk_hit) ? 1 : 0;
    counters->cache_disk_hits = result.disk_hit ? 1 : 0;
    counters->cache_misses = result.cache_hit ? 0 : 1;
    // Incident counter: only surfaces when something was quarantined, so
    // healthy runs keep their report documents unchanged.
    if (quarantined > 0) counters->cache_quarantined = quarantined;
  }
  return result;
}

Pipeline::ReuseCompilation Pipeline::compile_phase_reusing(
    const core::RequestSet& pattern, const core::Schedule& stale) {
  ReuseCompilation out;

  // Viability: the stale schedule must carry a path for every request of
  // the pattern, duplicates included (a multiset pattern needs one slot
  // per occurrence).
  std::unordered_map<std::string, int> available;
  for (const auto& config : stale.configurations())
    for (const auto& path : config.paths()) {
      std::string key = std::to_string(path.request.src) + '>' +
                        std::to_string(path.request.dst);
      ++available[key];
    }
  bool viable = stale.degree() > 0;
  for (const auto& request : pattern) {
    const std::string key =
        std::to_string(request.src) + '>' + std::to_string(request.dst);
    const auto it = available.find(key);
    if (it == available.end() || it->second == 0) {
      viable = false;
      break;
    }
    --it->second;
  }
  out.stale_viable = viable;

  std::int64_t paid = 0;
  if (viable) {
    // Estimate the fresh degree without compiling: the pattern's degree
    // lower bound.  It can only flatter the fresh side, so a "reuse"
    // verdict survives the true (>= lb) fresh degree.
    const auto paths = core::route_all(*net_, pattern);
    const int fresh_lb = sched::multiplexing_lower_bound(*net_, paths);
    out.decision =
        sched::decide_reuse(options_.reconfig_latency, stale.degree(),
                            fresh_lb, options_.reuse_horizon_frames);
    if (out.decision.reuse) {
      out.reused = true;
      out.compilation.phase.schedule = stale;
      out.compilation.phase.lower_bound = fresh_lb;
      paid = out.decision.reuse_cost;
    }
  }
  if (!out.reused) {
    out.compilation = compile_phase(pattern);
    paid = sched::fresh_load_cost(options_.reconfig_latency,
                                  out.compilation.phase.schedule.degree());
  }

  if (auto* counters = options_.sched.counters) {
    if (counters->reuse_decisions < 0) counters->reuse_decisions = 0;
    if (counters->reuse_kept_stale < 0) counters->reuse_kept_stale = 0;
    if (counters->reconfig_slots_paid < 0) counters->reconfig_slots_paid = 0;
    ++counters->reuse_decisions;
    if (out.reused) ++counters->reuse_kept_stale;
    counters->reconfig_slots_paid += paid;
  }
  return out;
}

PipelineProgram Pipeline::compile(const Program& program) {
  PipelineProgram out;
  const std::size_t n = program.phases.size();
  std::vector<core::RequestSet> patterns(n);
  for (std::size_t i = 0; i < n; ++i)
    patterns[i] = program.phases[i].pattern();

  // Dedup phases with identical patterns: same pattern + same scheduler
  // options = same compilation.
  std::vector<std::size_t> distinct_of(n);
  std::vector<std::size_t> distinct;
  {
    std::unordered_map<std::string, std::size_t> seen;
    for (std::size_t i = 0; i < n; ++i) {
      const auto [it, inserted] =
          seen.emplace(pattern_key(patterns[i]), distinct.size());
      if (inserted) distinct.push_back(i);
      distinct_of[i] = it->second;
    }
  }
  out.distinct_phases = static_cast<int>(distinct.size());

  const CacheStats before = cache_ ? cache_->stats() : CacheStats{};

  // Serial cache pass in phase order, then concurrent cold compiles of
  // the misses, then serial stores in phase order — cache contents are
  // deterministic for every thread count.
  std::vector<PhaseCompilation> results(distinct.size());
  std::vector<CacheKey> keys(distinct.size());
  std::vector<std::size_t> cold;
  for (std::size_t j = 0; j < distinct.size(); ++j) {
    keys[j] = key_for(patterns[distinct[j]]);
    if (cache_) {
      if (const auto hit = cache_->lookup(keys[j])) {
        results[j] = from_cached(*hit);
        continue;
      }
    }
    cold.push_back(j);
  }

  // Schedulers never see the shared counters here: the batch runs
  // concurrently, and per-phase timings would race.
  util::parallel_for(cold.size(), [&](std::size_t c) {
    const std::size_t j = cold[c];
    results[j].phase = cold_compile(patterns[distinct[j]], nullptr);
  });
  if (cache_) {
    const bool combined = compiler_ != nullptr;
    for (const std::size_t j : cold)
      cache_->store(keys[j], to_cached(results[j].phase, combined));
  }

  for (const auto& result : results)
    if (result.cache_hit) ++out.cache_hits;

  out.compiled.phases.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    out.compiled.phases.push_back(results[distinct_of[i]].phase);
  for (const auto& phase : out.compiled.phases)
    out.compiled.max_degree =
        std::max(out.compiled.max_degree, phase.schedule.degree());

  if (options_.stitch && n > 0) {
    out.stitch = stitch_program(out.compiled);
    out.reconfigurations_saved = out.stitch.saved(program.iterations);
  }

  if (auto* counters = options_.sched.counters) {
    counters->distinct_phases = out.distinct_phases;
    counters->reconfigurations_saved = out.reconfigurations_saved;
    if (cache_) {
      const CacheStats after = cache_->stats();
      counters->cache_memory_hits = after.memory_hits - before.memory_hits;
      counters->cache_disk_hits = after.disk_hits - before.disk_hits;
      counters->cache_misses = after.misses - before.misses;
      if (after.disk_quarantined > before.disk_quarantined)
        counters->cache_quarantined =
            after.disk_quarantined - before.disk_quarantined;
    }
  }
  return out;
}

}  // namespace optdm::apps
