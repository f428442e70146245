#include "core/link_occupancy.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "util/parallel.hpp"

namespace optdm::core {

LinkOccupancy::LinkOccupancy(std::span<const Path> paths) : paths_(paths) {
  if (paths.empty()) return;
  const int link_count = paths[0].occupancy.universe_size();
  std::size_t total_link_refs = 0;
  for (const auto& path : paths) {
    if (path.occupancy.universe_size() != link_count)
      throw std::invalid_argument(
          "LinkOccupancy: paths routed on different networks");
    total_link_refs += path.links.size();
  }

  // Counting sort over the paths' link vectors; scanning paths in index
  // order leaves every occupant list ascending.
  sizes_.assign(static_cast<std::size_t>(link_count), 0);
  for (const auto& path : paths)
    for (const auto link : path.links) ++sizes_[static_cast<std::size_t>(link)];
  offsets_.resize(sizes_.size());
  std::exclusive_scan(sizes_.begin(), sizes_.end(), offsets_.begin(),
                      std::size_t{0});
  occupants_.resize(total_link_refs);
  std::vector<std::size_t> cursor = offsets_;
  for (std::size_t i = 0; i < paths.size(); ++i)
    for (const auto link : paths[i].links)
      occupants_[cursor[static_cast<std::size_t>(link)]++] =
          static_cast<std::int32_t>(i);
}

int LinkOccupancy::max_occupancy() const noexcept {
  return sizes_.empty()
             ? 0
             : static_cast<int>(*std::max_element(sizes_.begin(), sizes_.end()));
}

std::vector<int> LinkOccupancy::conflict_degrees() const {
  std::vector<int> degrees(paths_.size(), 0);
  util::parallel_for_chunks(
      paths_.size(), [&](std::size_t begin, std::size_t end) {
        std::vector<std::int32_t> stamp(paths_.size(), -1);
        for (std::size_t v = begin; v < end; ++v) {
          int degree = 0;
          for_each_neighbor(static_cast<std::int32_t>(v), stamp,
                            [&degree](std::int32_t) { ++degree; });
          degrees[v] = degree;
        }
      });
  return degrees;
}

}  // namespace optdm::core
