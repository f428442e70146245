#pragma once

#include <vector>

#include "aapc/torus_aapc.hpp"
#include "core/schedule.hpp"
#include "topo/torus.hpp"

/// \file ordered_aapc.hpp
/// The paper's ordered-AAPC scheduling algorithm (Fig. 5), targeting dense
/// patterns.
///
/// Every request is mapped into its phase of a precomputed contention-free
/// AAPC decomposition of the torus; phases are ranked by the total link
/// utilization of the requests that landed in them; requests are reordered
/// so higher-ranked phases come first; the greedy algorithm then schedules
/// the reordered sequence.  Because each AAPC phase is internally
/// conflict-free, the result never exceeds the number of non-empty AAPC
/// phases — at most N^3/8 = 64 for the paper's 8x8 torus — while the greedy
/// pass is free to merge sparse phases into fewer configurations.

namespace optdm::sched {

/// Fig. 5 lines 1-7: every request routed the way the AAPC schedule routes
/// it, reordered so that same-phase requests are adjacent and phases come
/// in descending order of link utilization (ties in phase order).  This is
/// the sequence `ordered_aapc` hands to `greedy_paths`.
std::vector<core::Path> aapc_ordered_paths(const aapc::TorusAapc& aapc,
                                           const core::RequestSet& requests);

/// Ordered-AAPC scheduling.  Paths are routed by the AAPC schedule itself
/// (its half-ring direction choices may differ from the default router).
core::Schedule ordered_aapc(const aapc::TorusAapc& aapc,
                            const core::RequestSet& requests);

/// Convenience overload constructing the AAPC decomposition internally.
/// Prefer the other overload when scheduling many patterns on one torus.
core::Schedule ordered_aapc(const topo::TorusNetwork& net,
                            const core::RequestSet& requests);

}  // namespace optdm::sched
