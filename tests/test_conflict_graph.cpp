#include <gtest/gtest.h>

#include <algorithm>

#include "brute_force_graph.hpp"
#include "core/conflict_graph.hpp"
#include "core/link_occupancy.hpp"
#include "patterns/random.hpp"
#include "sched/bounds.hpp"
#include "topo/line.hpp"
#include "topo/torus.hpp"
#include "util/rng.hpp"

namespace {

using namespace optdm;
using core::ConflictGraph;

template <typename Graph>
std::vector<int> degrees_of(const Graph& graph) {
  std::vector<int> degrees;
  for (std::int32_t v = 0; v < graph.vertex_count(); ++v)
    degrees.push_back(graph.degree(v));
  return degrees;
}

TEST(ConflictGraph, Fig3Instance) {
  // The paper's Fig. 3 requests on a 5-node linear array.
  topo::LinearNetwork net(5);
  const auto paths =
      core::route_all(net, {{0, 2}, {1, 3}, {3, 4}, {2, 4}});
  ConflictGraph graph(paths);
  EXPECT_EQ(graph.vertex_count(), 4);
  // (0,2)-(1,3) share 1->2; (1,3)-(2,4) share 2->3; (3,4)-(2,4) share 3->4
  // and node 4's ejection.
  EXPECT_TRUE(graph.adjacent(0, 1));
  EXPECT_TRUE(graph.adjacent(1, 3));
  EXPECT_TRUE(graph.adjacent(2, 3));
  EXPECT_FALSE(graph.adjacent(0, 2));
  EXPECT_FALSE(graph.adjacent(0, 3));
  EXPECT_FALSE(graph.adjacent(1, 2));
  EXPECT_EQ(graph.edge_count(), 3u);
  EXPECT_EQ(graph.degree(1), 2);
}

TEST(ConflictGraph, EmptyGraph) {
  ConflictGraph graph(std::span<const core::Path>{});
  EXPECT_EQ(graph.vertex_count(), 0);
  EXPECT_EQ(graph.edge_count(), 0u);
  EXPECT_TRUE(sched::heuristic_clique({}, {}).empty());
}

TEST(ConflictGraph, NeighborsMatchAdjacency) {
  topo::TorusNetwork net(4, 4);
  util::Rng rng(17);
  const auto requests = patterns::random_pattern(16, 60, rng);
  const auto paths = core::route_all(net, requests);
  ConflictGraph graph(paths);
  for (std::int32_t v = 0; v < graph.vertex_count(); ++v) {
    int listed = 0;
    for (const auto u : graph.neighbors(v)) {
      EXPECT_TRUE(graph.adjacent(v, u));
      EXPECT_TRUE(graph.adjacent(u, v));
      ++listed;
    }
    EXPECT_EQ(listed, graph.degree(v));
    EXPECT_FALSE(graph.adjacent(v, v));
  }
}

TEST(ConflictGraph, AdjacencyMatchesPairwiseConflicts) {
  topo::TorusNetwork net(4, 4);
  util::Rng rng(23);
  const auto requests = patterns::random_pattern(16, 40, rng);
  const auto paths = core::route_all(net, requests);
  ConflictGraph graph(paths);
  for (std::size_t i = 0; i < paths.size(); ++i)
    for (std::size_t j = 0; j < paths.size(); ++j)
      if (i != j) {
        EXPECT_EQ(graph.adjacent(static_cast<std::int32_t>(i),
                                 static_cast<std::int32_t>(j)),
                  paths[i].conflicts_with(paths[j]));
      }
}

TEST(ConflictGraph, CliqueIsActuallyAClique) {
  topo::TorusNetwork net(8, 8);
  util::Rng rng(31);
  const auto requests = patterns::random_pattern(64, 300, rng);
  const auto paths = core::route_all(net, requests);
  ConflictGraph graph(paths);
  const auto clique = sched::heuristic_clique(paths, degrees_of(graph));
  EXPECT_GE(clique.size(), 1u);
  for (std::size_t i = 0; i < clique.size(); ++i)
    for (std::size_t j = i + 1; j < clique.size(); ++j)
      EXPECT_TRUE(graph.adjacent(clique[i], clique[j]));
}

TEST(ConflictGraph, SameSourceRequestsFormClique) {
  // All requests from one source conflict pairwise at the injection link.
  topo::TorusNetwork net(8, 8);
  core::RequestSet requests;
  for (topo::NodeId d = 1; d <= 6; ++d) requests.push_back({0, d});
  const auto paths = core::route_all(net, requests);
  ConflictGraph graph(paths);
  EXPECT_EQ(graph.edge_count(), 15u);  // complete graph on 6 vertices
  EXPECT_EQ(sched::heuristic_clique(paths, degrees_of(graph)).size(), 6u);
}

TEST(LinkOccupancy, NeighborWalksMatchTheGraph) {
  topo::TorusNetwork net(4, 4);
  util::Rng rng(41);
  const auto paths =
      core::route_all(net, patterns::random_pattern(16, 60, rng));
  // The all-pairs oracle: ConflictGraph itself is built from these walks.
  const oracle::BruteForceGraph graph(paths);
  const core::LinkOccupancy index(paths);
  EXPECT_EQ(index.conflict_degrees(), degrees_of(graph));

  std::vector<std::int32_t> stamp(paths.size(), -1);
  for (std::int32_t v = 0; v < graph.vertex_count(); ++v) {
    std::vector<std::int32_t> seen;
    index.for_each_neighbor(v, stamp,
                            [&](std::int32_t u) { seen.push_back(u); });
    std::sort(seen.begin(), seen.end());
    const auto expected = graph.neighbors(v);
    EXPECT_TRUE(std::equal(seen.begin(), seen.end(), expected.begin(),
                           expected.end()))
        << "vertex " << v;
  }

  // Erasing visits every remaining neighbour once with `first` set (and
  // again per further shared link without it), then drops the path.
  core::LinkOccupancy remaining = index;
  std::vector<std::int32_t> erase_stamp(paths.size(), -1);
  std::vector<bool> erased(paths.size(), false);
  for (std::int32_t v = 0; v < graph.vertex_count(); ++v) {
    std::size_t entries = 0;  // occupants other than v on v's links
    for (const auto link : paths[static_cast<std::size_t>(v)].links)
      entries += remaining.occupants(link).size() - 1;
    std::vector<std::int32_t> firsts;
    std::size_t repeats = 0;
    remaining.erase(v, erase_stamp, [&](std::int32_t u, bool first) {
      EXPECT_NE(u, v);
      EXPECT_FALSE(erased[static_cast<std::size_t>(u)]);
      if (first)
        firsts.push_back(u);
      else
        ++repeats;
    });
    erased[static_cast<std::size_t>(v)] = true;
    std::vector<std::int32_t> expected;
    for (const auto u : graph.neighbors(v))
      if (!erased[static_cast<std::size_t>(u)]) expected.push_back(u);
    std::sort(firsts.begin(), firsts.end());
    EXPECT_EQ(firsts, expected) << "vertex " << v;
    EXPECT_EQ(firsts.size() + repeats, entries) << "vertex " << v;
    for (const auto link : paths[static_cast<std::size_t>(v)].links) {
      const auto left = remaining.occupants(link);
      EXPECT_TRUE(std::is_sorted(left.begin(), left.end()));
      EXPECT_EQ(std::find(left.begin(), left.end(), v), left.end());
    }
  }
  for (topo::LinkId link = 0; link < net.link_count(); ++link)
    EXPECT_TRUE(remaining.occupants(link).empty());
  EXPECT_EQ(remaining.max_occupancy(), 0);
  EXPECT_EQ(index.max_occupancy(),
            sched::link_congestion_bound(net, paths));
}

}  // namespace
