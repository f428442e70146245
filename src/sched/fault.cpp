#include "sched/fault.hpp"

#include <stdexcept>
#include <string>

namespace optdm::sched {

PartialFaultPlan try_route_around_faults(const topo::TorusNetwork& net,
                                         const core::RequestSet& requests,
                                         const core::LinkSet& failed) {
  PartialFaultPlan plan;
  plan.paths.reserve(requests.size());

  int index = -1;
  for (const auto& request : requests) {
    ++index;
    // Processor interfaces cannot be detoured.
    if (failed.contains(net.injection_link(request.src)) ||
        failed.contains(net.ejection_link(request.dst))) {
      plan.unroutable.push_back(index);
      continue;
    }

    auto direct = core::make_path(net, request);
    if (!core::intersects(failed, direct)) {
      plan.paths.push_back(std::move(direct));
      plan.routed.push_back(index);
      continue;
    }

    // Two-leg misroute: try intermediate nodes in a deterministic
    // spiral-ish order around the source so short detours come first.
    bool repaired = false;
    for (topo::NodeId offset = 1;
         offset < net.node_count() && !repaired; ++offset) {
      const topo::NodeId via =
          static_cast<topo::NodeId>((request.src + offset) % net.node_count());
      if (via == request.src || via == request.dst) continue;
      auto links = net.route_links(request.src, via);
      const auto second = net.route_links(via, request.dst);
      links.insert(links.end(), second.begin(), second.end());
      core::Path candidate;
      try {
        candidate = core::make_path_with_links(net, request, std::move(links));
      } catch (const std::invalid_argument&) {
        continue;  // the two legs revisit a link: not a simple path
      }
      if (core::intersects(failed, candidate)) continue;
      plan.paths.push_back(std::move(candidate));
      plan.routed.push_back(index);
      ++plan.rerouted;
      repaired = true;
    }
    if (!repaired) plan.unroutable.push_back(index);
  }
  return plan;
}

FaultPlan route_around_faults(const topo::TorusNetwork& net,
                              const core::RequestSet& requests,
                              const core::LinkSet& failed) {
  auto partial = try_route_around_faults(net, requests, failed);
  if (!partial.complete()) {
    const auto& request = requests[static_cast<std::size_t>(
        partial.unroutable.front())];
    const bool processor_dead =
        failed.contains(net.injection_link(request.src)) ||
        failed.contains(net.ejection_link(request.dst));
    if (processor_dead)
      throw std::runtime_error(
          "route_around_faults: processor link of request (" +
          std::to_string(request.src) + "->" + std::to_string(request.dst) +
          ") has failed");
    throw std::runtime_error(
        "route_around_faults: no fault-free route for (" +
        std::to_string(request.src) + "->" + std::to_string(request.dst) +
        ")");
  }
  FaultPlan plan;
  plan.paths = std::move(partial.paths);
  plan.rerouted = partial.rerouted;
  return plan;
}

}  // namespace optdm::sched
