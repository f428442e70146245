#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/path.hpp"

/// \file conflict_graph.hpp
/// The conflict graph of a routed pattern: one vertex per path, an edge
/// between every pair of paths that share a directed link.  The paper's
/// coloring algorithm (Section 3.2) colors this graph, but no production
/// path materializes it: the coloring, the lower bounds and the exact
/// solver all work from the O(n)-memory `LinkOccupancy` index
/// (`sched::ConflictIndex`).  The class remains only because the repo
/// benchmark's probes time its build; it moves to `tests/`, as a test
/// oracle, with the next change to that benchmark.

namespace optdm::core {

/// Immutable conflict graph over a fixed path list, stored as CSR rows.
class ConflictGraph {
 public:
  /// Builds the rows from the link→paths `LinkOccupancy` index: row sizes
  /// are the conflict degrees, and each row is filled (in parallel) by a
  /// neighbour walk and then sorted.  The cost is O(Σ_link occupants²),
  /// not an O(n²) test of every pair of paths.  Throws
  /// `std::invalid_argument` if the paths span different networks.
  explicit ConflictGraph(std::span<const Path> paths);

  int vertex_count() const noexcept { return n_; }

  /// Neighbors of vertex `v` (indices into the original path span),
  /// sorted ascending.
  std::span<const std::int32_t> neighbors(std::int32_t v) const;

  /// Degree of vertex `v`.
  int degree(std::int32_t v) const;

  /// Binary search of `u`'s row.
  bool adjacent(std::int32_t u, std::int32_t v) const;

  std::size_t edge_count() const noexcept { return adj_.size() / 2; }

 private:
  int n_ = 0;
  /// CSR adjacency: the neighbours of v are adj_[offsets_[v], offsets_[v + 1]).
  std::vector<std::size_t> offsets_;
  std::vector<std::int32_t> adj_;
};

}  // namespace optdm::core
