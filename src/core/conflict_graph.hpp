#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/path.hpp"

/// \file conflict_graph.hpp
/// The conflict graph of a routed pattern: one vertex per path, an edge
/// between every pair of paths that share a directed link.  The paper's
/// coloring algorithm (Section 3.2) colors this graph, but works from the
/// O(n)-memory `LinkOccupancy` index instead of materializing it, as do
/// the lower bounds.  The graph now serves only the exact solver and the
/// tests.

namespace optdm::core {

/// Immutable conflict graph over a fixed path list.
class ConflictGraph {
 public:
  /// Builds the graph from the link→paths `LinkOccupancy` index: candidate
  /// edges are generated only from per-link occupant lists, so the cost is
  /// O(Σ_link occupants(link)²) instead of the all-pairs
  /// O(n² · words) LinkSet intersection.  Per-vertex rows are discovered
  /// independently (and in parallel); the result is identical to the
  /// brute-force construction.
  /// Throws `std::invalid_argument` if the paths span different networks.
  explicit ConflictGraph(std::span<const Path> paths);

  /// The historical all-pairs O(n²) construction.  Kept as the reference
  /// implementation for the equivalence property tests and the
  /// construction-strategy benchmarks; produces a bit-identical graph.
  static ConflictGraph brute_force(std::span<const Path> paths);

  int vertex_count() const noexcept { return n_; }

  /// Neighbors of vertex `v` (indices into the original path span),
  /// sorted ascending.
  std::span<const std::int32_t> neighbors(std::int32_t v) const;

  /// Degree of vertex `v`.
  int degree(std::int32_t v) const;

  bool adjacent(std::int32_t u, std::int32_t v) const;

  std::size_t edge_count() const noexcept { return edges_; }

 private:
  ConflictGraph() = default;

  void finalize_csr(const std::vector<std::vector<std::int32_t>>& lists);

  int n_ = 0;
  std::size_t edges_ = 0;
  /// CSR adjacency.
  std::vector<std::int32_t> adj_;
  std::vector<std::size_t> offsets_;
  /// Dense adjacency bit-matrix (row-major, n bits per row rounded up to
  /// words) for O(1) adjacency tests.  It is O(n²/8) bytes: ~53 MB for the
  /// 20 592 paths of the 12x12 all-to-all, plus a 67 MB CSR — which is why
  /// the compile path no longer builds the graph.
  std::vector<std::uint64_t> matrix_;
  std::size_t row_words_ = 0;
};

}  // namespace optdm::core
