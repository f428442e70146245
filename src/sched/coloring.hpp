#pragma once

#include <span>
#include <vector>

#include "core/link_occupancy.hpp"
#include "core/schedule.hpp"
#include "obs/sched_probe.hpp"
#include "topo/network.hpp"

/// \file coloring.hpp
/// The paper's graph-coloring connection-scheduling heuristic (Fig. 4).
///
/// The conflict graph has one vertex per routed request and an edge between
/// conflicting requests; a proper coloring's color classes are exactly the
/// configurations.  The heuristic colors one configuration per pass,
/// repeatedly picking the highest-priority still-eligible vertex and
/// re-evaluating priorities as vertices leave the uncolored subgraph
/// (Fig. 4 lines 13-16).
///
/// **Priority rule.**  The paper's prose defines the priority as
/// "the ratio of the number of links in the connection to the degree of
/// the corresponding node in the uncolored conflict subgraph" (fewest
/// conflicts first).  Implemented literally (`kLengthOverDegree`) this is
/// consistently *worse* than the greedy algorithm on the paper's own
/// workloads — the opposite of the paper's Table 1-3 results.  The
/// most-constrained-first family (priority grows with the uncolored
/// degree) does reproduce "coloring always better than greedy", so the
/// default here is `kDegreeTimesLength`; the other rules remain available
/// and `bench/ablation_heuristics` quantifies the gap.  See DESIGN.md
/// section 9.

namespace optdm::sched {

/// Priority rule used to order vertices; see the file comment.
enum class ColoringPriority {
  /// uncolored-degree * length — most-constrained-first; the default, and
  /// the rule that reproduces the paper's results.
  kDegreeTimesLength,
  /// uncolored-degree only.
  kDegreeOnly,
  /// length / uncolored-degree — the paper's prose, taken literally.
  kLengthOverDegree,
  /// 1 / uncolored-degree — pure "fewest conflicts first".
  kInverseDegree,
  /// length only (no degree feedback).
  kLengthOnly,
  /// length / static initial degree (no updates as coloring proceeds).
  kStaticLengthOverDegree,
};

/// Coloring-based scheduling over pre-routed paths.  A non-null
/// `counters` receives conflict-graph size, pass count, and phase
/// timings; null skips all measurement.  The conflict graph is never
/// materialized: degrees and neighbour updates come from a
/// `core::LinkOccupancy` index of `paths`.
core::Schedule coloring_paths(
    const topo::Network& net, std::span<const core::Path> paths,
    ColoringPriority priority = ColoringPriority::kDegreeTimesLength,
    obs::SchedCounters* counters = nullptr);

/// What the coloring reads besides the paths: their link→paths occupancy
/// index and conflict degrees.
struct ConflictIndex {
  core::LinkOccupancy occupancy;
  std::vector<int> degrees;

  /// Indexes `paths` (which must outlive the result), timed into
  /// `counters->graph_build_ns` unless `paths` is empty.
  static ConflictIndex build(std::span<const core::Path> paths,
                             obs::SchedCounters* counters = nullptr);
};

/// The same coloring over an index of `paths` the caller already built,
/// e.g. to reuse it for the lower bound.
core::Schedule coloring_paths(const topo::Network& net,
                              std::span<const core::Path> paths,
                              const ConflictIndex& index,
                              ColoringPriority priority,
                              obs::SchedCounters* counters = nullptr);

/// Convenience overload with deterministic routing.
core::Schedule coloring(
    const topo::Network& net, const core::RequestSet& requests,
    ColoringPriority priority = ColoringPriority::kDegreeTimesLength,
    obs::SchedCounters* counters = nullptr);

}  // namespace optdm::sched
