#include "sched/exact.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "core/conflict_graph.hpp"
#include "sched/bounds.hpp"
#include "sched/coloring.hpp"

namespace optdm::sched {

namespace {

/// Branch-and-bound exact graph coloring (chromatic number + witness).
class ExactColoring {
 public:
  ExactColoring(const core::ConflictGraph& graph, std::int64_t budget)
      : graph_(graph),
        n_(graph.vertex_count()),
        budget_(budget),
        color_(static_cast<std::size_t>(n_), -1) {}

  /// Returns the coloring with the fewest colors found, bounded above by
  /// `upper_bound_hint`; nullopt when the node budget is exhausted before
  /// the search space is closed.  `clique` is pre-colored: its vertices
  /// must all differ, so fixing them breaks most color-permutation
  /// symmetry.
  std::optional<std::vector<int>> solve(int upper_bound_hint,
                                        std::span<const std::int32_t> clique) {
    best_colors_ = upper_bound_hint;

    order_.assign(static_cast<std::size_t>(n_), -1);
    std::vector<bool> in_order(static_cast<std::size_t>(n_), false);
    std::size_t at = 0;
    for (const auto v : clique) {
      order_[at++] = v;
      in_order[static_cast<std::size_t>(v)] = true;
    }
    // Remaining vertices by descending degree (most-constrained first).
    std::vector<std::int32_t> rest;
    for (std::int32_t v = 0; v < n_; ++v)
      if (!in_order[static_cast<std::size_t>(v)]) rest.push_back(v);
    std::sort(rest.begin(), rest.end(), [this](std::int32_t a, std::int32_t b) {
      const int da = graph_.degree(a);
      const int db = graph_.degree(b);
      return da != db ? da > db : a < b;
    });
    for (const auto v : rest) order_[at++] = v;

    complete_ = true;
    dfs(0, 0);
    if (!found_ && !complete_) return std::nullopt;   // budget exhausted
    if (!found_) return std::nullopt;                 // hint was too tight
    return best_assignment_;
  }

  /// True when the search proved optimality (budget not exhausted).
  bool proved_optimal() const noexcept { return complete_; }

 private:
  void dfs(std::size_t index, int colors_used) {
    if (colors_used >= best_colors_) return;
    if (--budget_ <= 0) {
      complete_ = false;
      return;
    }
    if (index == order_.size()) {
      best_colors_ = colors_used;
      best_assignment_ = color_;
      found_ = true;
      return;
    }
    const auto v = order_[index];
    const int limit = std::min(colors_used, best_colors_ - 1);
    for (int c = 0; c <= limit; ++c) {
      bool feasible = true;
      for (const auto u : graph_.neighbors(v)) {
        if (color_[static_cast<std::size_t>(u)] == c) {
          feasible = false;
          break;
        }
      }
      if (!feasible) continue;
      color_[static_cast<std::size_t>(v)] = c;
      dfs(index + 1, std::max(colors_used, c + 1));
      color_[static_cast<std::size_t>(v)] = -1;
      if (budget_ <= 0) return;
    }
  }

  const core::ConflictGraph& graph_;
  std::int32_t n_;
  std::int64_t budget_;
  std::vector<int> color_;
  std::vector<std::int32_t> order_;
  std::vector<int> best_assignment_;
  int best_colors_ = 0;
  bool found_ = false;
  bool complete_ = true;
};

}  // namespace

std::optional<core::Schedule> exact_paths(const topo::Network& net,
                                          std::span<const core::Path> paths,
                                          const ExactOptions& options) {
  if (static_cast<int>(paths.size()) > options.max_vertices)
    return std::nullopt;
  core::Schedule result;
  if (paths.empty()) return result;

  const core::ConflictGraph graph(paths);

  // The coloring heuristic provides the initial upper bound (+1 so an
  // equally-good exact witness is still *found*, not just proven to exist).
  const auto heuristic = coloring_paths(net, paths);
  std::vector<int> degrees(paths.size());
  for (std::int32_t v = 0; v < graph.vertex_count(); ++v)
    degrees[static_cast<std::size_t>(v)] = graph.degree(v);
  ExactColoring solver(graph, options.node_budget);
  const auto assignment =
      solver.solve(heuristic.degree() + 1, heuristic_clique(paths, degrees));
  if (!assignment || !solver.proved_optimal()) return std::nullopt;

  const int colors =
      1 + *std::max_element(assignment->begin(), assignment->end());
  std::vector<core::Configuration> configs(
      static_cast<std::size_t>(colors), core::Configuration(net.link_count()));
  for (std::size_t i = 0; i < paths.size(); ++i) {
    if (!configs[static_cast<std::size_t>((*assignment)[i])].add(paths[i]))
      throw std::logic_error("exact: invalid coloring produced");
  }
  for (auto& config : configs) result.append(std::move(config));
  return result;
}

std::optional<core::Schedule> exact(const topo::Network& net,
                                    const core::RequestSet& requests,
                                    const ExactOptions& options) {
  const auto paths = core::route_all(net, requests);
  return exact_paths(net, paths, options);
}

}  // namespace optdm::sched
