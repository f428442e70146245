// Property tests for the offline-compilation fast path:
//  1. the inverted-index ConflictGraph construction matches the brute-force
//     all-pairs construction (brute_force_graph.hpp) edge-for-edge on random
//     patterns over every topology family;
//  2. coloring_paths output is byte-identical to the reference
//     implementation (a literal O(n) best-vertex scan per selection over
//     the conflict graph, reproduced below) for every ColoringPriority
//     rule, on small random patterns and on tie-heavy and larger ones;
//  3. the graph-free bounds (link congestion from the occupancy index, the
//     paths-based heuristic clique) equal the same bounds computed through
//     the conflict graph.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <vector>

#include "brute_force_graph.hpp"
#include "core/conflict_graph.hpp"
#include "patterns/named.hpp"
#include "patterns/random.hpp"
#include "sched/bounds.hpp"
#include "sched/coloring.hpp"
#include "topo/hypercube.hpp"
#include "topo/mesh.hpp"
#include "topo/omega.hpp"
#include "topo/torus.hpp"
#include "util/rng.hpp"

namespace {

using namespace optdm;
using core::ConflictGraph;

struct Topology {
  std::unique_ptr<topo::Network> net;
  int nodes;
};

std::vector<Topology> topology_zoo() {
  std::vector<Topology> zoo;
  zoo.push_back({std::make_unique<topo::TorusNetwork>(4, 4), 16});
  zoo.push_back({std::make_unique<topo::TorusNetwork>(8, 8), 64});
  zoo.push_back({std::make_unique<topo::MeshNetwork>(4, 4), 16});
  zoo.push_back({std::make_unique<topo::HypercubeNetwork>(16), 16});
  zoo.push_back({std::make_unique<topo::OmegaNetwork>(16), 16});
  return zoo;
}

void expect_identical_graphs(const ConflictGraph& fast,
                             const oracle::BruteForceGraph& reference) {
  ASSERT_EQ(fast.vertex_count(), reference.vertex_count());
  EXPECT_EQ(fast.edge_count(), reference.edge_count());
  for (std::int32_t v = 0; v < fast.vertex_count(); ++v) {
    ASSERT_EQ(fast.degree(v), reference.degree(v)) << "vertex " << v;
    const auto fast_nbrs = fast.neighbors(v);
    const auto ref_nbrs = reference.neighbors(v);
    ASSERT_EQ(fast_nbrs.size(), ref_nbrs.size()) << "vertex " << v;
    for (std::size_t k = 0; k < fast_nbrs.size(); ++k)
      EXPECT_EQ(fast_nbrs[k], ref_nbrs[k])
          << "vertex " << v << " neighbor slot " << k;
    for (std::int32_t u = 0; u < fast.vertex_count(); ++u)
      ASSERT_EQ(fast.adjacent(v, u), reference.adjacent(v, u))
          << "pair (" << v << ", " << u << ")";
  }
}

TEST(ConflictGraphEquivalence, MatchesBruteForceOnAllTopologies) {
  util::Rng rng(20260806);
  for (const auto& topology : topology_zoo()) {
    const std::int64_t universe =
        static_cast<std::int64_t>(topology.nodes) * (topology.nodes - 1);
    for (const int conns : {1, 10, 60, static_cast<int>(universe / 2)}) {
      const auto requests =
          patterns::random_pattern(topology.nodes, conns, rng);
      const auto paths = core::route_all(*topology.net, requests);
      const ConflictGraph fast(paths);
      const oracle::BruteForceGraph reference(paths);
      SCOPED_TRACE(topology.net->name() + ", " + std::to_string(conns) +
                   " connections");
      expect_identical_graphs(fast, reference);
    }
  }
}

// ---------------------------------------------------------------------------
// Reference coloring: the exact algorithm coloring_paths implemented before
// the per-pass heap rewrite — an O(n) highest-priority scan per selection
// with ties broken toward the lower index.
// ---------------------------------------------------------------------------

double reference_priority(sched::ColoringPriority rule, int length,
                          int dynamic_degree, int static_degree) {
  using sched::ColoringPriority;
  const int degree = rule == ColoringPriority::kStaticLengthOverDegree
                         ? static_degree
                         : dynamic_degree;
  switch (rule) {
    case ColoringPriority::kDegreeTimesLength:
      return static_cast<double>(degree) * static_cast<double>(length);
    case ColoringPriority::kDegreeOnly:
      return static_cast<double>(degree);
    case ColoringPriority::kLengthOnly:
      return static_cast<double>(length);
    case ColoringPriority::kInverseDegree:
      return degree == 0 ? std::numeric_limits<double>::infinity()
                         : 1.0 / static_cast<double>(degree);
    case ColoringPriority::kLengthOverDegree:
    case ColoringPriority::kStaticLengthOverDegree:
      return degree == 0 ? std::numeric_limits<double>::infinity()
                         : static_cast<double>(length) /
                               static_cast<double>(degree);
  }
  return 0.0;
}

core::Schedule reference_coloring(const topo::Network& net,
                                  std::span<const core::Path> paths,
                                  sched::ColoringPriority rule) {
  const auto n = static_cast<std::int32_t>(paths.size());
  core::Schedule schedule;
  if (n == 0) return schedule;

  const core::ConflictGraph graph(paths);
  std::vector<int> uncolored_degree(static_cast<std::size_t>(n));
  std::vector<int> static_degree(static_cast<std::size_t>(n));
  for (std::int32_t v = 0; v < n; ++v) {
    uncolored_degree[static_cast<std::size_t>(v)] = graph.degree(v);
    static_degree[static_cast<std::size_t>(v)] = graph.degree(v);
  }
  std::vector<bool> colored(static_cast<std::size_t>(n), false);
  std::vector<std::int32_t> excluded_in_pass(static_cast<std::size_t>(n), -1);
  std::int32_t colored_count = 0;
  std::int32_t pass = 0;

  while (colored_count < n) {
    core::Configuration config(net.link_count());
    while (true) {
      std::int32_t best = -1;
      double best_priority = -1.0;
      for (std::int32_t v = 0; v < n; ++v) {
        const auto vi = static_cast<std::size_t>(v);
        if (colored[vi] || excluded_in_pass[vi] == pass) continue;
        const double p =
            reference_priority(rule, paths[vi].hops(), uncolored_degree[vi],
                               static_degree[vi]);
        if (p > best_priority) {
          best_priority = p;
          best = v;
        }
      }
      if (best < 0) break;
      const auto bi = static_cast<std::size_t>(best);
      colored[bi] = true;
      ++colored_count;
      EXPECT_TRUE(config.add(paths[bi])) << "reference WORK-set violation";
      for (const auto neighbor : graph.neighbors(best)) {
        const auto ni = static_cast<std::size_t>(neighbor);
        if (colored[ni]) continue;
        --uncolored_degree[ni];
        excluded_in_pass[ni] = pass;
      }
    }
    schedule.append(std::move(config));
    ++pass;
  }
  return schedule;
}

/// Serializes a schedule as the exact per-slot request sequences, so two
/// schedules compare byte-identical iff every slot contains the same
/// connections in the same order.
std::vector<std::vector<std::pair<topo::NodeId, topo::NodeId>>> flatten(
    const core::Schedule& schedule) {
  std::vector<std::vector<std::pair<topo::NodeId, topo::NodeId>>> slots;
  for (const auto& config : schedule.configurations()) {
    auto& slot = slots.emplace_back();
    for (const auto& path : config.paths())
      slot.emplace_back(path.request.src, path.request.dst);
  }
  return slots;
}

constexpr sched::ColoringPriority kAllRules[] = {
    sched::ColoringPriority::kDegreeTimesLength,
    sched::ColoringPriority::kDegreeOnly,
    sched::ColoringPriority::kLengthOverDegree,
    sched::ColoringPriority::kInverseDegree,
    sched::ColoringPriority::kLengthOnly,
    sched::ColoringPriority::kStaticLengthOverDegree,
};

TEST(ColoringEquivalence, HeapSelectionMatchesLinearScanForAllRules) {
  const auto& rules = kAllRules;
  util::Rng rng(1996);
  for (const auto& topology : topology_zoo()) {
    for (const int conns : {5, 40, 120}) {
      const auto requests =
          patterns::random_pattern(topology.nodes, conns, rng);
      const auto paths = core::route_all(*topology.net, requests);
      for (const auto rule : rules) {
        const auto heap_based =
            sched::coloring_paths(*topology.net, paths, rule);
        const auto reference =
            reference_coloring(*topology.net, paths, rule);
        SCOPED_TRACE(topology.net->name() + ", " + std::to_string(conns) +
                     " connections, rule " +
                     std::to_string(static_cast<int>(rule)));
        EXPECT_EQ(flatten(heap_based), flatten(reference));
      }
    }
  }
}

TEST(ColoringEquivalence, MatchesLinearScanOnTieHeavyAndLargerInputs) {
  // All-to-all patterns give thousands of equal priorities (ties resolved
  // by index); the larger inputs spread the priorities over more key
  // digits and leave many passes that end before the order is exhausted.
  topo::TorusNetwork torus4(4, 4);
  topo::TorusNetwork torus8(8, 8);
  util::Rng rng(2602);
  struct Case {
    const topo::Network* net;
    core::RequestSet requests;
    std::string label;
  };
  const Case cases[] = {
      {&torus4, patterns::all_to_all(16), "all-to-all 4x4"},
      {&torus8, patterns::all_to_all(64), "all-to-all 8x8"},
      {&torus8, patterns::random_pattern(64, 1200, rng), "1200 random 8x8"},
  };
  for (const auto& c : cases) {
    const auto paths = core::route_all(*c.net, c.requests);
    for (const auto rule : kAllRules) {
      SCOPED_TRACE(c.label + ", rule " +
                   std::to_string(static_cast<int>(rule)));
      EXPECT_EQ(flatten(sched::coloring_paths(*c.net, paths, rule)),
                flatten(reference_coloring(*c.net, paths, rule)));
    }
  }
}

// ---------------------------------------------------------------------------
// Reference bounds: both computed through the conflict graph, the way
// sched::clique_bound and sched::link_congestion_bound did before they
// moved onto the occupancy index.
// ---------------------------------------------------------------------------

int reference_clique_size(const ConflictGraph& graph) {
  std::vector<std::int32_t> order(
      static_cast<std::size_t>(graph.vertex_count()));
  for (std::int32_t v = 0; v < graph.vertex_count(); ++v)
    order[static_cast<std::size_t>(v)] = v;
  std::sort(order.begin(), order.end(), [&](std::int32_t a, std::int32_t b) {
    const int da = graph.degree(a);
    const int db = graph.degree(b);
    return da != db ? da > db : a < b;
  });
  std::vector<std::int32_t> clique;
  for (const auto v : order) {
    const bool fits =
        std::all_of(clique.begin(), clique.end(), [&](std::int32_t member) {
          return graph.adjacent(v, member);
        });
    if (fits) clique.push_back(v);
  }
  return static_cast<int>(clique.size());
}

int reference_congestion(const topo::Network& net,
                         std::span<const core::Path> paths) {
  std::vector<int> usage(static_cast<std::size_t>(net.link_count()), 0);
  for (const auto& path : paths)
    for (const auto link : path.links) ++usage[static_cast<std::size_t>(link)];
  return *std::max_element(usage.begin(), usage.end());
}

TEST(BoundsEquivalence, GraphFreeBoundsMatchGraphOnAllTopologies) {
  util::Rng rng(1701);
  for (const auto& topology : topology_zoo()) {
    const std::int64_t universe =
        static_cast<std::int64_t>(topology.nodes) * (topology.nodes - 1);
    std::vector<core::RequestSet> inputs;
    for (const int conns : {1, 10, 60, static_cast<int>(universe / 2)})
      inputs.push_back(patterns::random_pattern(topology.nodes, conns, rng));
    inputs.push_back(patterns::all_to_all(topology.nodes));
    for (const auto& requests : inputs) {
      const auto paths = core::route_all(*topology.net, requests);
      const ConflictGraph graph(paths);
      SCOPED_TRACE(topology.net->name() + ", " +
                   std::to_string(requests.size()) + " connections");
      EXPECT_EQ(sched::clique_bound(paths), reference_clique_size(graph));
      EXPECT_EQ(sched::link_congestion_bound(*topology.net, paths),
                reference_congestion(*topology.net, paths));
      EXPECT_EQ(sched::multiplexing_lower_bound(*topology.net, paths),
                std::max(reference_clique_size(graph),
                         reference_congestion(*topology.net, paths)));
    }
  }
}

}  // namespace
