#pragma once

#include <span>
#include <vector>

#include "core/schedule.hpp"
#include "obs/sched_probe.hpp"
#include "topo/network.hpp"

/// \file greedy.hpp
/// The paper's greedy connection-scheduling algorithm (Fig. 2).
///
/// Configurations are created one at a time; each pass scans the remaining
/// requests *in their given order* and adds every request that does not
/// conflict with the configuration under construction.  The result is
/// order-sensitive: Fig. 3 of the paper shows a 4-request instance where
/// the given order costs 3 slots while the optimum is 2 (reproduced in
/// `bench/fig3_greedy_suboptimal` and the unit tests).
///
/// Implemented as first-fit in request order, which is the same algorithm:
/// Fig. 2 puts each request in the first configuration whose earlier
/// members leave all its links free, and those earlier members are exactly
/// the requests before it in the given order that first-fit has already
/// placed there.  So the configurations, their member order and the pass
/// count are Fig. 2's.  Each link keeps one `uint64_t` per block of 64
/// configurations, with a bit set for every configuration that uses it; a
/// request goes in the lowest configuration whose bit is clear in the OR
/// of its links' masks, so it costs O(path length x blocks) instead of one
/// bitset test per earlier configuration.  `tests/test_greedy.cpp` keeps
/// the pass algorithm as the oracle.

namespace optdm::sched {

/// Greedy scheduling over pre-routed paths (order preserved).  A non-null
/// `counters` receives pass count, conflict rejections, and timing; null
/// skips all measurement.  Rejections count as in Fig. 2: a request placed
/// in configuration k was rejected by every configuration below k that was
/// not yet using every link when its turn came (Fig. 2 stops trying adds
/// against a saturated configuration).  Throws `std::invalid_argument` for
/// a path over a different link count than `net`.
core::Schedule greedy_paths(const topo::Network& net,
                            std::span<const core::Path> paths,
                            obs::SchedCounters* counters = nullptr);

/// The same, moving each path into its configuration instead of copying.
core::Schedule greedy_paths(const topo::Network& net,
                            std::vector<core::Path>&& paths,
                            obs::SchedCounters* counters = nullptr);

/// Convenience overload: routes `requests` with the topology's
/// deterministic router, then schedules.
core::Schedule greedy(const topo::Network& net,
                      const core::RequestSet& requests,
                      obs::SchedCounters* counters = nullptr);

}  // namespace optdm::sched
