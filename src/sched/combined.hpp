#pragma once

#include <string>

#include "aapc/torus_aapc.hpp"
#include "core/schedule.hpp"
#include "obs/sched_probe.hpp"
#include "topo/torus.hpp"

/// \file combined.hpp
/// The paper's "combined" algorithm (Section 3.4, Table 1 column 5): run
/// both the coloring heuristic and the ordered-AAPC algorithm and keep the
/// schedule with the smaller multiplexing degree.  This is the algorithm
/// the compiled-communication side of the Section-4 simulation uses.

namespace optdm::sched {

/// Which component algorithm produced a combined schedule.
enum class CombinedWinner { kColoring, kOrderedAapc };

/// Combined scheduling result with provenance.
struct CombinedResult {
  core::Schedule schedule;
  CombinedWinner winner = CombinedWinner::kColoring;
  /// `multiplexing_lower_bound` of the pattern's deterministic routes;
  /// schedule.degree() >= lower_bound always.
  int lower_bound = 0;
};

/// Runs coloring and ordered-AAPC, returns the better schedule.  Ties go to
/// coloring (it uses the default deterministic routes).
///
/// Stage order: route the requests with the default router, then build
/// the `ConflictIndex` (occupancy and conflict degrees) over the whole
/// thread pool, then fork.  One branch runs the coloring over the index;
/// the other runs ordered-AAPC and then `multiplexing_lower_bound`, which
/// reads the same index.  Both branches only read the shared routes and
/// index, so the result is the sequential composition's at any thread
/// count.  A non-null `counters` collects the route, index, coloring and
/// AAPC timings plus the winner name; null skips all measurement.
CombinedResult combined_with_winner(const aapc::TorusAapc& aapc,
                                    const core::RequestSet& requests,
                                    obs::SchedCounters* counters = nullptr);

/// Convenience wrapper discarding provenance.
core::Schedule combined(const aapc::TorusAapc& aapc,
                        const core::RequestSet& requests);

/// Convenience overload constructing the AAPC decomposition internally.
core::Schedule combined(const topo::TorusNetwork& net,
                        const core::RequestSet& requests);

/// Human-readable winner name ("coloring" / "ordered-aapc").
std::string to_string(CombinedWinner winner);

}  // namespace optdm::sched
