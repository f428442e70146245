#pragma once

// The all-pairs conflict graph: every pair of paths tested with
// `Path::conflicts_with`, O(n²) tests and an n×n adjacency matrix.  It is
// the reference that `core::ConflictGraph`'s index-built rows and
// `core::LinkOccupancy::conflict_degrees` are checked against, and it
// offers the same read interface as `core::ConflictGraph`.

#include <cstdint>
#include <span>
#include <vector>

#include "core/path.hpp"

namespace optdm::oracle {

class BruteForceGraph {
 public:
  explicit BruteForceGraph(std::span<const core::Path> paths)
      : rows_(paths.size()),
        matrix_(paths.size() * paths.size(), false) {
    for (std::size_t i = 0; i < paths.size(); ++i) {
      for (std::size_t j = i + 1; j < paths.size(); ++j) {
        if (!paths[i].conflicts_with(paths[j])) continue;
        rows_[i].push_back(static_cast<std::int32_t>(j));
        rows_[j].push_back(static_cast<std::int32_t>(i));
        matrix_[i * paths.size() + j] = true;
        matrix_[j * paths.size() + i] = true;
        ++edges_;
      }
    }
  }

  int vertex_count() const noexcept { return static_cast<int>(rows_.size()); }

  /// Ascending, because pairs are visited in (i, j) order.
  std::span<const std::int32_t> neighbors(std::int32_t v) const {
    return rows_[static_cast<std::size_t>(v)];
  }

  int degree(std::int32_t v) const {
    return static_cast<int>(neighbors(v).size());
  }

  bool adjacent(std::int32_t u, std::int32_t v) const {
    return matrix_[static_cast<std::size_t>(u) * rows_.size() +
                   static_cast<std::size_t>(v)];
  }

  std::size_t edge_count() const noexcept { return edges_; }

 private:
  std::size_t edges_ = 0;
  std::vector<std::vector<std::int32_t>> rows_;
  std::vector<bool> matrix_;
};

}  // namespace optdm::oracle
