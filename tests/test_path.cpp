#include <gtest/gtest.h>

#include "core/path.hpp"
#include "topo/line.hpp"
#include "topo/mesh.hpp"
#include "topo/torus.hpp"
#include "util/rng.hpp"

namespace {

using namespace optdm;
using core::make_path;
using core::make_path_with_links;
using core::Path;
using core::Request;

TEST(Path, WrapsRouteWithProcessorLinks) {
  topo::TorusNetwork net(8, 8);
  const auto path = make_path(net, {0, 3});
  ASSERT_EQ(path.links.size(), 5u);  // inj + 3 x-hops + ej
  EXPECT_EQ(path.links.front(), net.injection_link(0));
  EXPECT_EQ(path.links.back(), net.ejection_link(3));
  EXPECT_EQ(path.hops(), 3);
}

TEST(Path, OccupancyMatchesLinks) {
  topo::TorusNetwork net(8, 8);
  const auto path = make_path(net, {5, 40});
  EXPECT_EQ(path.occupancy.size(),
            static_cast<int>(path.links.size()));
  for (const auto link : path.links)
    EXPECT_TRUE(path.occupancy.contains(link));
}

TEST(Path, SelfRequestThrows) {
  topo::TorusNetwork net(4, 4);
  EXPECT_THROW(make_path(net, {3, 3}), std::invalid_argument);
}

TEST(Path, OutOfRangeEndpointThrows) {
  topo::TorusNetwork net(4, 4);
  EXPECT_THROW(make_path(net, {0, 16}), std::invalid_argument);
  EXPECT_THROW(make_path(net, {-1, 3}), std::invalid_argument);
}

TEST(Path, ExplicitLinksValidated) {
  topo::TorusNetwork net(4, 4);
  // A valid explicit route.
  auto links = net.route_links(0, 2);
  EXPECT_NO_THROW(make_path_with_links(net, {0, 2}, links));
  // Discontiguous: drop one link.
  auto broken = links;
  broken.pop_back();
  EXPECT_THROW(make_path_with_links(net, {0, 2}, broken),
               std::invalid_argument);
  // Wrong destination.
  EXPECT_THROW(make_path_with_links(net, {0, 3}, links),
               std::invalid_argument);
}

TEST(Path, ConflictIffSharedLink) {
  topo::LinearNetwork net(5);
  const auto a = make_path(net, {0, 2});
  const auto b = make_path(net, {1, 3});  // shares link 1->2
  const auto c = make_path(net, {3, 4});
  EXPECT_TRUE(a.conflicts_with(b));
  EXPECT_TRUE(b.conflicts_with(a));
  EXPECT_FALSE(a.conflicts_with(c));
  // (1,3) and (3,4): ejection of the first is node 3's ejection link, the
  // second *injects* at 3 — distinct links, no conflict.
  EXPECT_FALSE(b.conflicts_with(c));
}

TEST(Path, InjectionConflictBetweenSameSource) {
  topo::TorusNetwork net(8, 8);
  const auto a = make_path(net, {0, 1});
  const auto b = make_path(net, {0, 8});
  // Disjoint routes (x vs y) but both need node 0's injection link.
  EXPECT_TRUE(a.conflicts_with(b));
}

TEST(Path, EjectionConflictBetweenSameDestination) {
  topo::TorusNetwork net(8, 8);
  const auto a = make_path(net, {1, 0});
  const auto b = make_path(net, {8, 0});
  EXPECT_TRUE(a.conflicts_with(b));
}

TEST(Path, RouteAllPreservesOrder) {
  topo::TorusNetwork net(4, 4);
  const core::RequestSet requests{{0, 1}, {5, 2}, {3, 9}};
  const auto paths = core::route_all(net, requests);
  ASSERT_EQ(paths.size(), 3u);
  for (std::size_t i = 0; i < requests.size(); ++i)
    EXPECT_EQ(paths[i].request, requests[i]);
}

class PathPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(PathPropertyTest, RandomPairsProduceValidPaths) {
  // Property: for random (src, dst) on several topologies, make_path
  // produces a contiguous, duplicate-free path from src to dst.
  const int seed = GetParam();
  util::Rng rng(static_cast<std::uint64_t>(seed));
  topo::TorusNetwork torus(8, 8);
  topo::MeshNetwork mesh(8, 8);
  topo::RingNetwork ring(16);
  const topo::Network* nets[] = {&torus, &mesh, &ring};
  for (const auto* net : nets) {
    for (int trial = 0; trial < 50; ++trial) {
      const auto s =
          static_cast<topo::NodeId>(rng.uniform(0, net->node_count() - 1));
      auto d = static_cast<topo::NodeId>(rng.uniform(0, net->node_count() - 2));
      if (d >= s) ++d;
      const auto path = make_path(*net, {s, d});
      EXPECT_EQ(path.links.front(), net->injection_link(s));
      EXPECT_EQ(path.links.back(), net->ejection_link(d));
      EXPECT_EQ(path.occupancy.size(), static_cast<int>(path.links.size()));
      topo::NodeId at = s;
      for (const auto id : path.links) {
        EXPECT_EQ(net->link(id).from, at);
        at = net->link(id).to;
      }
      EXPECT_EQ(at, d);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PathPropertyTest, ::testing::Range(0, 8));

}  // namespace
