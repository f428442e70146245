#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "apps/compiler.hpp"
#include "apps/program.hpp"
#include "apps/sched_cache.hpp"
#include "sched/reconfig.hpp"
#include "sched/scheduler.hpp"
#include "topo/torus.hpp"

/// \file pipeline.hpp
/// The phase-aware compilation pipeline — the front door of the compiled-
/// communication toolchain.
///
/// `CommCompiler` compiles one pattern; `Pipeline` compiles *programs*.
/// It layers three things the paper's compile-once model makes natural on
/// top of the single-pattern compiler:
///
///  1. **Content-addressed caching** (`ScheduleCache`): a compilation is
///     keyed by everything that determines its output, so recompiling an
///     unchanged phase — across phases, programs, or (with a disk dir)
///     process runs — is a lookup, byte-identical to the cold compile.
///  2. **Batched compilation**: a program's phases are deduplicated by
///     pattern and the distinct ones compiled concurrently on the shared
///     pool (`util/parallel.hpp`).  Cache stores happen serially in phase
///     index order, so cache contents are deterministic under any thread
///     count.
///  3. **Phase stitching**: slot order inside a schedule is arbitrary
///     (any permutation of a valid configuration set is valid), so the
///     pipeline reorders each phase's configurations to line up with
///     identical configurations of the previous phase.  Every aligned
///     identical pair is one switch-register reload the network skips at
///     that phase boundary.

namespace optdm::apps {

/// Pipeline configuration.
struct PipelineOptions {
  /// Registry name of the scheduler compiling each phase.
  std::string scheduler = "combined";
  /// Scheduler knobs; `sched.counters` (when non-null) receives the
  /// pipeline summary counters of each program compile (cache traffic,
  /// distinct phases, reconfigurations saved) and, for *single-pattern*
  /// compiles only, the scheduler's own phase timings.  Batched compiles
  /// run concurrently and never hand the shared counters to schedulers.
  sched::SchedOptions sched;
  /// Run the phase-stitching pass on program compiles.
  bool stitch = true;
  /// Enable the schedule cache.
  bool use_cache = true;
  /// In-memory cache capacity (entries).
  std::size_t cache_capacity = 256;
  /// In-memory cache stripe count (rounded up to a power of two).  1 — the
  /// default — is the historical single-lock cache; services sharing one
  /// pipeline across worker threads raise this so concurrent requests for
  /// different keys stop serializing on one mutex.
  std::size_t cache_shards = 1;
  /// On-disk cache directory; empty keeps the cache memory-only.
  std::string cache_dir;
  /// Per-switch-setting reconfiguration latency R (slots) driving the
  /// reuse-vs-recompile decision of `compile_phase_reusing`.  0 — free
  /// reconfiguration, the paper's model — makes reuse never pay.
  std::int64_t reconfig_latency = 0;
  /// Frames a phase's schedule is expected to run before the next phase
  /// change; the horizon over which a reused stale schedule keeps paying
  /// its degree penalty.
  std::int64_t reuse_horizon_frames = 1;
};

/// One compiled pattern, with provenance.
struct PhaseCompilation {
  CompiledPhase phase;
  /// True when the schedule came out of the cache (either tier).
  bool cache_hit = false;
  /// True when the hit came from the on-disk tier specifically (implies
  /// `cache_hit`).  Per-request provenance: exact even when many
  /// concurrent requests share one cache, where aggregate stats deltas
  /// would interleave.
  bool disk_hit = false;
};

/// One compiled pattern as the cache holds it: the shared, immutable entry
/// plus this call's provenance.  The copy-free form of `PhaseCompilation`
/// (the service engine answers straight from it).
struct SharedCompilation {
  /// Never null.  `entry->schedule_text` is filled when the cache is on.
  CachedPtr entry;
  /// `entry->winner` decoded.
  sched::CombinedWinner winner = sched::CombinedWinner::kColoring;
  bool cache_hit = false;
  bool disk_hit = false;
};

/// What the stitching pass found at each phase boundary.
struct StitchReport {
  /// Shared (identical, identically-placed) configurations at each
  /// internal boundary; size = phases - 1.
  std::vector<int> boundary_shared;
  /// Shared configurations at the wrap-around boundary (last phase back
  /// to the first, crossed once per iteration after the first).
  int wrap_shared = 0;

  /// Register reloads elided over a whole run of `iterations` passes:
  /// every internal boundary is crossed `iterations` times, the wrap
  /// boundary `iterations - 1` times.
  std::int64_t saved(int iterations) const;
};

/// Reference stitching pass: greedy boundary matching, front to back.
/// Reorders configurations *within* each phase of `compiled` (never
/// across phases, never phase 0) so identical configurations of adjacent
/// phases land in the same slot.  Per-phase degrees and the configuration
/// multisets are unchanged — only slot order moves.  Returns the sharing
/// found; deterministic.
StitchReport stitch_program_greedy(CompiledProgram& compiled);

/// Reconfiguration-cost minimizer over slot permutations.  Runs the
/// greedy pass, then improves the wrap-around boundary: last-phase slots
/// that the greedy pass matched neither to the previous phase nor to
/// phase 0 are permuted to line up with phase 0's fingerprints.  A swap
/// never touches a matched slot, so every boundary count is >= the greedy
/// pass's and `saved()` dominates it for every iteration count
/// (pinned by tests).  Deterministic; identical-phase programs (where
/// greedy already aligns everything) come out byte-identical to greedy.
StitchReport stitch_program(CompiledProgram& compiled);

/// A batch-compiled program with the pipeline's accounting.
struct PipelineProgram {
  CompiledProgram compiled;
  /// Distinct patterns actually scheduled (rest deduplicated onto them).
  int distinct_phases = 0;
  /// Distinct patterns served from the cache.
  int cache_hits = 0;
  /// Boundary sharing found by stitching (empty when disabled).
  StitchReport stitch;
  /// `stitch.saved(program.iterations)` — 0 when stitching is disabled.
  std::int64_t reconfigurations_saved = 0;
};

/// Phase-aware compiler for one torus network.  Construction resolves the
/// scheduler (throwing `std::invalid_argument` for unknown names, listing
/// the registry) and precomputes the AAPC decomposition; compiles are
/// then cheap.  Thread-safe for concurrent `compile_phase` calls.
class Pipeline {
 public:
  explicit Pipeline(const topo::TorusNetwork& net, PipelineOptions options = {});
  ~Pipeline();

  Pipeline(const Pipeline&) = delete;
  Pipeline& operator=(const Pipeline&) = delete;

  /// Compiles one pattern through the cache.  A warm hit returns a
  /// byte-identical schedule to the cold compile it memoizes.  Concurrent
  /// calls for the same missing pattern are single-flight: one compiles,
  /// the rest wait and take memory hits.
  PhaseCompilation compile_phase(const core::RequestSet& pattern);

  /// Per-call-counters variant: identical compilation, but the scheduling
  /// timings and this call's cache traffic land in `counters` instead of
  /// the construction-time `options().sched.counters`.  This is the entry
  /// point for callers that share one `Pipeline` across concurrent
  /// requests and still want exact per-request accounting (the
  /// compilation service); passing `options().sched.counters` reproduces
  /// `compile_phase(pattern)` exactly.
  PhaseCompilation compile_phase(const core::RequestSet& pattern,
                                 obs::SchedCounters* counters);

  /// The path both `compile_phase` overloads wrap: the same compilation
  /// and accounting, but a hit hands back the cache's shared entry
  /// instead of copying it out.  Without a cache the cold compile is
  /// wrapped in a fresh entry.
  SharedCompilation compile_shared(const core::RequestSet& pattern,
                                   obs::SchedCounters* counters);

  /// Outcome of a reuse-vs-recompile decision.
  struct ReuseCompilation {
    PhaseCompilation compilation;
    /// True when the stale schedule was kept instead of compiling.
    bool reused = false;
    /// Whether the stale schedule even carries every request of the
    /// pattern (a prerequisite for reuse).
    bool stale_viable = false;
    /// The R-weighted cost comparison (meaningful when `stale_viable`).
    sched::ReuseDecision decision;
  };

  /// Decides whether to keep running `stale` — a valid schedule for a
  /// superset of `pattern`, typically a cached compilation of an earlier,
  /// larger phase — or to compile `pattern` fresh.  Reuse is viable only
  /// when every request of `pattern` occupies a slot of `stale`; the cost
  /// model (`sched::decide_reuse`) then weighs the register-load bill of a
  /// fresh schedule (R x fresh degree, estimated by the pattern's degree
  /// lower bound) against the per-frame degree penalty of the stale one
  /// over `reuse_horizon_frames`.  At `reconfig_latency == 0` the fresh
  /// branch always wins and the call is `compile_phase` plus accounting.
  /// Feeds `SchedCounters::reuse_decisions` / `reconfig_slots_paid` when
  /// counters are attached.
  ReuseCompilation compile_phase_reusing(const core::RequestSet& pattern,
                                         const core::Schedule& stale);

  /// Batch-compiles a program: dedupe phases, compile distinct ones
  /// concurrently (cache-aware), stitch adjacent phases.  The result's
  /// `compiled` drops into `execute_program` unchanged.
  PipelineProgram compile(const Program& program);

  /// The underlying cache, or nullptr when `use_cache` was false.
  const ScheduleCache* cache() const noexcept { return cache_.get(); }

  const PipelineOptions& options() const noexcept { return options_; }
  const topo::TorusNetwork& network() const noexcept { return *net_; }
  /// The resolved scheduler.
  const sched::Scheduler& scheduler() const noexcept { return *scheduler_; }

 private:
  CompiledPhase cold_compile(const core::RequestSet& pattern,
                             obs::SchedCounters* counters) const;
  /// The cache key of `pattern` under this pipeline's scheduler and
  /// options, from fingerprints computed once at construction.
  CacheKey key_for(const core::RequestSet& pattern) const;

  const topo::TorusNetwork* net_;
  PipelineOptions options_;
  const sched::Scheduler* scheduler_;
  std::unique_ptr<CommCompiler> compiler_;
  std::unique_ptr<ScheduleCache> cache_;
  std::string topology_fingerprint_;
  std::string options_fingerprint_;
};

}  // namespace optdm::apps
