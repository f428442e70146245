#pragma once

#include <vector>

#include "core/linkset.hpp"
#include "core/request.hpp"
#include "topo/network.hpp"

/// \file path.hpp
/// A concrete all-optical path realizing a connection request: the
/// injection link, the network links chosen by the router, and the ejection
/// link.  Scheduling algorithms operate on paths, not raw requests, because
/// conflicts are defined over the links a route actually occupies.

namespace optdm::core {

/// A routed connection.
///
/// Invariants (checked by `make_path` / `make_path_with_links`):
///  * `links` starts with `src`'s injection link and ends with `dst`'s
///    ejection link;
///  * consecutive links are contiguous (`link[i].to == link[i+1].from`);
///  * no link repeats (`occupancy.size() == links.size()`).
struct Path {
  Request request;
  /// All directed links, injection/ejection included, in traversal order.
  std::vector<topo::LinkId> links;
  /// Same links as a bitset, for O(words) conflict tests.
  LinkSet occupancy;

  /// Number of network (switch-to-switch) links; the "length" used by the
  /// coloring heuristic's priority and the AAPC phase ranks.
  int hops() const noexcept {
    return static_cast<int>(links.size()) - 2;
  }

  /// True if the two paths cannot be established in the same configuration.
  /// Throws if the paths belong to different networks (universe mismatch).
  bool conflicts_with(const Path& other) const {
    return occupancy.intersects(other.occupancy);
  }
};

/// Routes `request` on `net` with the topology's deterministic router and
/// wraps the result in a validated `Path`.  Throws `std::invalid_argument`
/// for self-requests (a node does not use the optical network to reach
/// itself).
Path make_path(const topo::Network& net, Request request);

/// Builds a `Path` from explicitly chosen network links (the AAPC schedule
/// picks directions itself).  Validates contiguity and endpoint agreement.
Path make_path_with_links(const topo::Network& net, Request request,
                          std::vector<topo::LinkId> network_links);

/// Routes every request of a pattern.  Order is preserved.
std::vector<Path> route_all(const topo::Network& net,
                            const RequestSet& requests);

}  // namespace optdm::core
