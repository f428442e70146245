#include "core/conflict_graph.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/link_occupancy.hpp"
#include "util/parallel.hpp"

namespace optdm::core {

ConflictGraph::ConflictGraph(std::span<const Path> paths)
    : n_(static_cast<int>(paths.size())), offsets_(paths.size() + 1, 0) {
  const LinkOccupancy index(paths);
  const auto degrees = index.conflict_degrees();
  for (std::size_t v = 0; v < paths.size(); ++v)
    offsets_[v + 1] = offsets_[v] + static_cast<std::size_t>(degrees[v]);
  adj_.resize(offsets_.back());

  // Each vertex owns its row, so rows are filled in parallel with no
  // synchronization; each chunk dedupes paths sharing several links
  // through its own stamp array.
  util::parallel_for_chunks(
      paths.size(), [&](std::size_t begin, std::size_t end) {
        std::vector<std::int32_t> stamp(paths.size(), -1);
        for (std::size_t v = begin; v < end; ++v) {
          std::int32_t* const row = adj_.data() + offsets_[v];
          std::int32_t* out = row;
          index.for_each_neighbor(static_cast<std::int32_t>(v), stamp,
                                  [&out](std::int32_t u) { *out++ = u; });
          std::sort(row, out);
        }
      });
}

std::span<const std::int32_t> ConflictGraph::neighbors(std::int32_t v) const {
  if (v < 0 || v >= n_)
    throw std::out_of_range("ConflictGraph::neighbors: bad vertex");
  const auto begin = offsets_[static_cast<std::size_t>(v)];
  const auto end = offsets_[static_cast<std::size_t>(v) + 1];
  return {adj_.data() + begin, end - begin};
}

int ConflictGraph::degree(std::int32_t v) const {
  return static_cast<int>(neighbors(v).size());
}

bool ConflictGraph::adjacent(std::int32_t u, std::int32_t v) const {
  if (v < 0 || v >= n_)
    throw std::out_of_range("ConflictGraph::adjacent: bad vertex");
  const auto row = neighbors(u);
  return std::binary_search(row.begin(), row.end(), v);
}

}  // namespace optdm::core
