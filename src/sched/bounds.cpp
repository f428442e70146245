#include "sched/bounds.hpp"

#include <algorithm>
#include <numeric>

namespace optdm::sched {

int link_congestion_bound(const topo::Network& /*net*/,
                          std::span<const core::Path> paths) {
  return core::LinkOccupancy(paths).max_occupancy();
}

std::vector<std::int32_t> heuristic_clique(std::span<const core::Path> paths,
                                           std::span<const int> degrees) {
  std::vector<std::int32_t> order(paths.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::int32_t a, std::int32_t b) {
    const int da = degrees[static_cast<std::size_t>(a)];
    const int db = degrees[static_cast<std::size_t>(b)];
    return da != db ? da > db : a < b;
  });

  std::vector<std::int32_t> clique;
  for (const auto v : order) {
    // A path joining a clique of k conflicts with all k members, so once
    // the degrees fall below k nothing further can join.
    if (degrees[static_cast<std::size_t>(v)] <
        static_cast<int>(clique.size()))
      break;
    const auto& path = paths[static_cast<std::size_t>(v)];
    const bool fits =
        std::all_of(clique.begin(), clique.end(), [&](std::int32_t member) {
          return path.conflicts_with(paths[static_cast<std::size_t>(member)]);
        });
    if (fits) clique.push_back(v);
  }
  return clique;
}

int clique_bound(std::span<const core::Path> paths) {
  const core::LinkOccupancy index(paths);
  return static_cast<int>(
      heuristic_clique(paths, index.conflict_degrees()).size());
}

int multiplexing_lower_bound(const topo::Network& /*net*/,
                             std::span<const core::Path> paths) {
  const core::LinkOccupancy index(paths);
  return multiplexing_lower_bound(paths, index, index.conflict_degrees());
}

int multiplexing_lower_bound(std::span<const core::Path> paths,
                             const core::LinkOccupancy& index,
                             std::span<const int> degrees) {
  return std::max(index.max_occupancy(),
                  static_cast<int>(heuristic_clique(paths, degrees).size()));
}

}  // namespace optdm::sched
