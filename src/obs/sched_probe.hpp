#pragma once

#include <chrono>
#include <cstdint>
#include <string>

/// \file sched_probe.hpp
/// Phase timings and work counters for the offline schedulers — the
/// compile-time half of the observability layer.  `SchedCounters` is a
/// plain struct the scheduler entry points fill through a nullable
/// pointer; every field defaults to "unmeasured" (-1 / empty) so report
/// writers can tell a zero from a phase that never ran.  This header is
/// std-only and safe to include below `sched` in the layering.

namespace optdm::obs {

/// Counters one scheduling run fills in.  `-1` / empty string means the
/// corresponding phase did not run (e.g. a greedy-only run leaves the
/// coloring fields untouched).
struct SchedCounters {
  /// Wall time of `core::route_all` (deterministic routing), nanoseconds.
  std::int64_t route_ns = -1;
  /// Wall time to build the coloring's `core::LinkOccupancy` index and
  /// run its conflict-degree pass, nanoseconds.  No conflict graph is
  /// built any more; the field keeps its name so the report schema stays
  /// stable.
  std::int64_t graph_build_ns = -1;
  /// Wall time of the coloring heuristic proper (graph build excluded).
  std::int64_t coloring_ns = -1;
  /// Wall time of the AAPC-template branch of the combined scheduler.
  std::int64_t aapc_ns = -1;
  /// Wall time of the greedy first-fit scheduler.
  std::int64_t greedy_ns = -1;

  /// Conflict-graph size: vertices (= paths) and undirected edges (half
  /// the sum of the conflict degrees).
  std::int64_t conflict_vertices = -1;
  std::int64_t conflict_edges = -1;
  /// Color classes extracted by the coloring heuristic (== its degree).
  int coloring_passes = -1;
  /// Passes the greedy scheduler ran (== its degree).
  int greedy_passes = -1;
  /// `Configuration::add` calls the greedy scheduler had rejected for
  /// conflicts before the path found a slot.
  std::int64_t greedy_rejections = -1;

  /// Multiplexing degree produced by each branch that ran.
  int coloring_degree = -1;
  int aapc_degree = -1;
  int greedy_degree = -1;

  /// Which branch the combined scheduler picked ("coloring" /
  /// "aapc-template"); empty for non-combined runs.
  std::string combined_winner;

  /// Compilation-pipeline counters (`apps::Pipeline`): schedule-cache
  /// traffic, phase deduplication, and reconfiguration slots the
  /// phase-stitching pass saved at phase boundaries.  -1 = no pipeline ran.
  std::int64_t cache_memory_hits = -1;
  std::int64_t cache_disk_hits = -1;
  std::int64_t cache_misses = -1;
  /// Distinct phases a batched program compile actually scheduled (the
  /// rest were deduplicated onto them); -1 for single-pattern compiles.
  int distinct_phases = -1;
  /// Register reloads elided across the executed phase sequence because
  /// adjacent phases share identically-placed configurations.
  std::int64_t reconfigurations_saved = -1;

  /// Execution-robustness counters (the supervised execution layer).
  /// Shard-supervision incidents of `apps::SweepRunner::run_sharded`
  /// (worker re-forks by cause, cells salvaged as missing), on-disk
  /// schedule-cache entries quarantined as corrupt/stale, and the dynamic
  /// engine's livelock diagnostic (observed retries/message, set only
  /// when the `DynamicParams::livelock_retries_per_message` threshold
  /// tripped).  -1 = the corresponding subsystem did not run supervised.
  std::int64_t shard_retries = -1;
  std::int64_t shard_restarts_crashed = -1;
  std::int64_t shard_restarts_hung = -1;
  std::int64_t shard_restarts_corrupt = -1;
  std::int64_t salvaged_cells = -1;
  std::int64_t cache_quarantined = -1;
  std::int64_t livelock_retries_per_message = -1;

  /// Reconfiguration-cost counters (nonzero switch-setting latency R).
  /// `reconfig_slots_paid` accumulates the R-weighted slots the chosen
  /// alternative pays per `compile_phase_reusing` decision (register-load
  /// bill of a fresh schedule, or the degree penalty of a reused stale
  /// one); `reuse_decisions` counts the decisions taken and
  /// `reuse_kept_stale` how many kept the stale schedule.
  /// `reconfig_stall_slots` / `reconfig_overlap_hidden` are filled from a
  /// `sched::ReconfigPlan`: stall slots charged per frame, and dirty
  /// transitions hidden by overlap reconfiguration.  -1 = no R-aware
  /// component ran.
  std::int64_t reconfig_slots_paid = -1;
  std::int64_t reuse_decisions = -1;
  std::int64_t reuse_kept_stale = -1;
  std::int64_t reconfig_stall_slots = -1;
  std::int64_t reconfig_overlap_hidden = -1;

  /// True when any field was measured — reports skip the block otherwise.
  bool measured() const noexcept {
    return route_ns >= 0 || graph_build_ns >= 0 || coloring_ns >= 0 ||
           aapc_ns >= 0 || greedy_ns >= 0 || conflict_vertices >= 0 ||
           cache_memory_hits >= 0 || cache_disk_hits >= 0 ||
           cache_misses >= 0 || reconfigurations_saved >= 0 ||
           shard_retries >= 0 || salvaged_cells >= 0 ||
           cache_quarantined >= 0 || livelock_retries_per_message >= 0 ||
           reconfig_slots_paid >= 0 || reuse_decisions >= 0 ||
           reconfig_stall_slots >= 0 || reconfig_overlap_hidden >= 0 ||
           !combined_winner.empty();
  }
};

/// RAII stopwatch writing elapsed nanoseconds into one `SchedCounters`
/// field on destruction.  Null counters make it a no-op, so scheduler
/// code can instrument unconditionally:
///
///     { PhaseTimer t(counters, &SchedCounters::coloring_ns);  ...work... }
class PhaseTimer {
 public:
  PhaseTimer(SchedCounters* counters, std::int64_t SchedCounters::* field)
      : counters_(counters), field_(field) {
    if (counters_) start_ = std::chrono::steady_clock::now();
  }
  ~PhaseTimer() {
    if (!counters_) return;
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    counters_->*field_ =
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count();
  }
  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;

 private:
  SchedCounters* counters_;
  std::int64_t SchedCounters::* field_;
  std::chrono::steady_clock::time_point start_{};
};

}  // namespace optdm::obs
