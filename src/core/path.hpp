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
///
/// A path is sparse: it stores its own links (at most diameter + 2 ids)
/// and nothing sized to the network.  Whatever needs a dense view of many
/// paths' links keeps one of its own: a configuration's single `used_`
/// set, `validate_disjoint`'s running union, `LinkOccupancy`'s index.

namespace optdm::core {

/// A routed connection.
///
/// Invariants (checked by `make_path` / `make_path_with_links`):
///  * `links` starts with `src`'s injection link and ends with `dst`'s
///    ejection link;
///  * consecutive links are contiguous (`link[i].to == link[i+1].from`);
///  * no link repeats, and every link id is below `link_count`.
struct Path {
  Request request;
  /// All directed links, injection/ejection included, in traversal order.
  std::vector<topo::LinkId> links;
  /// Link count of the network the path was routed on.  Paths (and link
  /// sets) over different counts come from different networks and are
  /// never compared: every such comparison throws.
  int link_count = 0;

  /// Number of network (switch-to-switch) links; the "length" used by the
  /// coloring heuristic's priority and the AAPC phase ranks.
  int hops() const noexcept {
    return static_cast<int>(links.size()) - 2;
  }

  /// True if the two paths cannot be established in the same configuration
  /// (they share a link).  Throws `std::invalid_argument` if the paths
  /// belong to networks with different link counts.
  bool conflicts_with(const Path& other) const;
};

/// True if `set` holds any link of `path`.  Throws `std::invalid_argument`
/// if `set`'s universe is not `path.link_count`.
bool intersects(const LinkSet& set, const Path& path);

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
