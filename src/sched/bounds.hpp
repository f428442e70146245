#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/link_occupancy.hpp"
#include "core/path.hpp"
#include "topo/network.hpp"

/// \file bounds.hpp
/// Lower bounds on the multiplexing degree required for a routed pattern.
/// Every heuristic schedule must have degree >= `multiplexing_lower_bound`;
/// the property tests assert this for all algorithms on all patterns, and
/// the benches report heuristic/bound gaps.  All of them work from the
/// link→paths `core::LinkOccupancy` index; none builds the conflict graph.

namespace optdm::sched {

/// Maximum number of paths crossing any single directed link.  Requests
/// sharing a link can never share a slot, so the busiest link forces at
/// least this many configurations.  Because injection/ejection links are
/// part of every path, this subsumes "max messages sent or received by one
/// node".
int link_congestion_bound(const topo::Network& net,
                          std::span<const core::Path> paths);

/// Greedy heuristic clique of the conflict graph, given every path's
/// conflict degree (`LinkOccupancy::conflict_degrees`): visits the paths by
/// descending degree (ties toward the lower index) and keeps each one
/// that conflicts with every path kept so far.  Returns the kept indices
/// in that order.
std::vector<std::int32_t> heuristic_clique(std::span<const core::Path> paths,
                                           std::span<const int> degrees);

/// Size of `heuristic_clique`: pairwise conflicting requests all need
/// distinct slots.  At least as strong as `link_congestion_bound` in
/// principle, but heuristic; the combined bound takes the max of both.
int clique_bound(std::span<const core::Path> paths);

/// max(link congestion, heuristic clique).
int multiplexing_lower_bound(const topo::Network& net,
                             std::span<const core::Path> paths);

/// The same bound from an index of `paths` and their conflict degrees that
/// the caller already built (the combined scheduler shares its coloring
/// branch's).
int multiplexing_lower_bound(std::span<const core::Path> paths,
                             const core::LinkOccupancy& index,
                             std::span<const int> degrees);

}  // namespace optdm::sched
