#include "sched/greedy.hpp"

#include <bit>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace optdm::sched {

namespace {

/// First-fit over `paths` in order.  `P` is `const core::Path` to copy each
/// path into its configuration, or `core::Path` to move it there.
template <typename P>
core::Schedule first_fit(const topo::Network& net, std::span<P> paths,
                         obs::SchedCounters* counters) {
  obs::PhaseTimer timer(counters, &obs::SchedCounters::greedy_ns);
  const auto link_count = static_cast<std::size_t>(net.link_count());
  std::vector<core::Configuration> configs;
  // Per-link slot masks in blocks of 64 configurations: bit j of
  // busy[b * link_count + l] is set when configuration 64 * b + j uses
  // link l.  Configurations not yet opened have clear bits, so the lowest
  // bit clear on all of a path's links is at most configs.size().
  std::vector<std::uint64_t> busy;
  // One bit per configuration whose members use every link.  Fig. 2 stops
  // trying adds against such a configuration, so a path it skips there is
  // not counted as a rejection.
  std::vector<std::uint64_t> saturated;
  // Member paths are link-disjoint, so a configuration's used-link count is
  // the sum of its members' link counts.
  std::vector<std::size_t> links_used;
  std::int64_t rejections = 0;

  for (auto& path : paths) {
    if (static_cast<std::size_t>(path.link_count) != link_count)
      throw std::invalid_argument(
          "greedy_paths: path over " + std::to_string(path.link_count) +
          " links on a network of " + std::to_string(link_count));
    std::size_t block = 0;
    std::uint64_t taken = 0;
    for (;; ++block) {
      if (block == saturated.size()) {
        busy.resize(busy.size() + link_count, 0);
        saturated.push_back(0);
      }
      const std::uint64_t* masks = busy.data() + block * link_count;
      taken = 0;
      for (const auto link : path.links)
        taken |= masks[static_cast<std::size_t>(link)];
      if (taken != ~std::uint64_t{0}) break;
    }
    const int bit = std::countr_one(taken);
    const std::size_t slot = 64 * block + static_cast<std::size_t>(bit);
    if (slot == configs.size()) {
      configs.emplace_back(net.link_count());
      links_used.push_back(0);
    }
    std::uint64_t* masks = busy.data() + block * link_count;
    const std::uint64_t own = std::uint64_t{1} << bit;
    for (const auto link : path.links) masks[static_cast<std::size_t>(link)] |= own;
    links_used[slot] += path.links.size();
    if (links_used[slot] == link_count) saturated[block] |= own;
    // Last, since it may move the path.
    if (!configs[slot].add(std::move(path)))
      throw std::logic_error("greedy_paths: slot mask and configuration disagree");

    if (counters) {
      // Fig. 2 tried this path against every earlier configuration that
      // was not yet saturated when the path's turn came in that pass.
      std::int64_t skipped = 0;
      for (std::size_t b = 0; b < block; ++b)
        skipped += std::popcount(saturated[b]);
      skipped += std::popcount(saturated[block] & (own - 1));
      rejections += static_cast<std::int64_t>(slot) - skipped;
    }
  }

  core::Schedule schedule;
  for (auto& config : configs) schedule.append(std::move(config));
  if (counters) {
    counters->greedy_passes = schedule.degree();
    counters->greedy_rejections = rejections;
    counters->greedy_degree = schedule.degree();
  }
  return schedule;
}

}  // namespace

core::Schedule greedy_paths(const topo::Network& net,
                            std::span<const core::Path> paths,
                            obs::SchedCounters* counters) {
  return first_fit(net, paths, counters);
}

core::Schedule greedy_paths(const topo::Network& net,
                            std::vector<core::Path>&& paths,
                            obs::SchedCounters* counters) {
  return first_fit(net, std::span<core::Path>(paths), counters);
}

core::Schedule greedy(const topo::Network& net,
                      const core::RequestSet& requests,
                      obs::SchedCounters* counters) {
  std::vector<core::Path> paths;
  {
    obs::PhaseTimer timer(counters, &obs::SchedCounters::route_ns);
    paths = core::route_all(net, requests);
  }
  return greedy_paths(net, std::move(paths), counters);
}

}  // namespace optdm::sched
