#include "core/path.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace optdm::core {

namespace {

Path assemble(const topo::Network& net, Request request,
              std::vector<topo::LinkId> network_links) {
  if (request.src == request.dst)
    throw std::invalid_argument("Path: self-request (" +
                                std::to_string(request.src) + " -> " +
                                std::to_string(request.dst) + ")");
  if (request.src < 0 || request.src >= net.node_count() || request.dst < 0 ||
      request.dst >= net.node_count())
    throw std::invalid_argument("Path: request endpoint outside network");

  Path path;
  path.request = request;
  path.links.reserve(network_links.size() + 2);
  path.links.push_back(net.injection_link(request.src));
  for (const auto link : network_links) path.links.push_back(link);
  path.links.push_back(net.ejection_link(request.dst));

  // Validate contiguity and link uniqueness in one pass.  Routes are at
  // most diameter + 2 links, so the quadratic uniqueness scan costs less
  // than a network-sized scratch set.
  path.link_count = net.link_count();
  topo::NodeId at = request.src;
  for (auto it = path.links.begin(); it != path.links.end(); ++it) {
    const topo::Link& link = net.link(*it);
    if (link.from != at)
      throw std::invalid_argument("Path: discontiguous route");
    at = link.to;
    if (std::find(path.links.begin(), it, *it) != it)
      throw std::invalid_argument("Path: route visits a link twice");
  }
  if (at != request.dst)
    throw std::invalid_argument("Path: route does not end at destination");
  return path;
}

}  // namespace

bool Path::conflicts_with(const Path& other) const {
  if (link_count != other.link_count)
    throw std::invalid_argument(
        "Path::conflicts_with: paths over " + std::to_string(link_count) +
        " and " + std::to_string(other.link_count) + " links");
  return std::find_first_of(links.begin(), links.end(), other.links.begin(),
                            other.links.end()) != links.end();
}

bool intersects(const LinkSet& set, const Path& path) {
  if (set.universe_size() != path.link_count)
    throw std::invalid_argument(
        "intersects: link set over " + std::to_string(set.universe_size()) +
        " links, path over " + std::to_string(path.link_count));
  return std::any_of(path.links.begin(), path.links.end(),
                     [&set](topo::LinkId link) { return set.contains(link); });
}

Path make_path(const topo::Network& net, Request request) {
  return assemble(net, request, net.route_links(request.src, request.dst));
}

Path make_path_with_links(const topo::Network& net, Request request,
                          std::vector<topo::LinkId> network_links) {
  return assemble(net, request, std::move(network_links));
}

std::vector<Path> route_all(const topo::Network& net,
                            const RequestSet& requests) {
  std::vector<Path> paths;
  paths.reserve(requests.size());
  for (const auto& request : requests) paths.push_back(make_path(net, request));
  return paths;
}

}  // namespace optdm::core
