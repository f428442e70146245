// Mega-scale substrate tests: 32x32 / 64x64 tori at the maximum
// multiplexing degree, id-space overflow guards, the topology-spec
// factory, and the word-level LinkSet representation the SoA engines
// consume.  These pin the "scale without overflow" contract: a 64x64
// torus at K=64 is the largest configuration the id types must carry.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>

#include "core/linkset.hpp"
#include "topo/factory.hpp"
#include "topo/ids.hpp"
#include "topo/network.hpp"
#include "topo/omega.hpp"
#include "topo/torus.hpp"

namespace {

using namespace optdm;

TEST(Scale, IdHelpersAreOverflowSafe) {
  static_assert(topo::fits_in_id(0));
  static_assert(topo::fits_in_id(std::numeric_limits<std::int32_t>::max()));
  static_assert(!topo::fits_in_id(-1));
  static_assert(!topo::fits_in_id(
      std::int64_t{std::numeric_limits<std::int32_t>::max()} + 1));

  static_assert(topo::slot_words(1) == 1);
  static_assert(topo::slot_words(64) == 1);
  static_assert(topo::slot_words(65) == 2);

  // 64x64 torus: 4096 nodes, 6 links each = 24576 links; at K=64 the
  // dense cell count is 24576 * 1 word.  The product is computed in
  // 64-bit even when the int32 factors would overflow.
  static_assert(topo::link_slot_cells(24576, topo::slot_words(64)) == 24576);
  static_assert(topo::link_slot_cells(std::int64_t{1} << 31,
                                      std::int64_t{1} << 31) ==
                std::int64_t{1} << 62);
}

TEST(Scale, TorusScalePointsInstantiate) {
  const auto t8 = topo::TorusNetwork::paper_8x8();
  EXPECT_EQ(t8.extents().nodes, 64);

  const auto t32 = topo::TorusNetwork::scale_32x32();
  const auto e32 = t32.extents();
  EXPECT_EQ(e32.nodes, 32 * 32);
  EXPECT_EQ(e32.links, 32 * 32 * 6);  // 4 network + injection + ejection
  EXPECT_EQ(e32.network_links, 32 * 32 * 4);
  EXPECT_EQ(e32.dimensions, 2);

  const auto t64 = topo::TorusNetwork::scale_64x64();
  const auto e64 = t64.extents();
  EXPECT_EQ(e64.nodes, 64 * 64);
  EXPECT_EQ(e64.links, 64 * 64 * 6);
  EXPECT_EQ(e64.network_links, 64 * 64 * 4);
  EXPECT_EQ(e64.dimensions, 2);

  // Every network link is binned into exactly one dimension list.
  int binned = 0;
  for (int d = 0; d < e64.dimensions; ++d) {
    for (const auto link : t64.links_in_dim(d)) {
      EXPECT_TRUE(t64.is_network_link(link));
      ++binned;
    }
  }
  EXPECT_EQ(binned, e64.network_links);
}

TEST(Scale, OccupancyWordsAtMaxDegree) {
  const auto t64 = topo::TorusNetwork::scale_64x64();
  // K = 64 slots fit one word per link: 24576 links -> 24576 words
  // (192 KiB of occupancy state for the full fabric).
  EXPECT_EQ(t64.occupancy_words(topo::kMaxMultiplexingDegree), 24576u);
  EXPECT_EQ(t64.occupancy_words(1), 24576u);
  EXPECT_EQ(t64.occupancy_words(65), 2u * 24576u);
  EXPECT_THROW((void)t64.occupancy_words(0), std::invalid_argument);
  EXPECT_THROW((void)t64.occupancy_words(-8), std::invalid_argument);
}

TEST(Scale, SoAAccessorsAgreeWithRecords64x64) {
  const auto net = topo::TorusNetwork::scale_64x64();
  // Spot-check the flat to_/kind_ tables against the full link records
  // across the id range (stride keeps the test fast).
  for (topo::LinkId id = 0; id < net.link_count(); id += 97) {
    const auto& link = net.link(id);
    EXPECT_EQ(net.to_of(id), link.to);
    EXPECT_EQ(net.kind_of(id), link.kind);
  }
  // Longest dimension-order route: the torus antipode (32, 32) is 32
  // wrap-free hops away in each dimension; the walk touches both without
  // tripping any id assert.
  const auto route = net.route_links(0, 32 * 64 + 32);
  EXPECT_EQ(static_cast<int>(route.size()), 32 + 32);
  // Corner to corner rides the wraparound instead: one hop per dimension.
  EXPECT_EQ(net.route_links(0, net.node_count() - 1).size(), 2u);
}

TEST(Scale, FactoryParsesTheGrammar) {
  const auto square = topo::parse_topology_spec("torus:8x8");
  EXPECT_EQ(square.family, topo::TopologySpec::Family::kTorus);
  EXPECT_EQ(square.cols, 8);
  EXPECT_EQ(square.rows, 8);

  const auto shorthand = topo::parse_topology_spec("torus:32");
  EXPECT_EQ(shorthand.cols, 32);
  EXPECT_EQ(shorthand.rows, 32);

  const auto rect = topo::parse_topology_spec("torus:4x16");
  EXPECT_EQ(rect.cols, 4);
  EXPECT_EQ(rect.rows, 16);

  const auto omega = topo::parse_topology_spec("omega:64");
  EXPECT_EQ(omega.family, topo::TopologySpec::Family::kOmega);
  EXPECT_EQ(omega.cols, 64);

  for (const char* bad :
       {"", "torus", "torus:", "torus:8x", "torus:x8", "torus:8x8x8",
        "torus:-8x8", "torus:1e3", "mesh:8x8", "omega:", "omega:8.5",
        "torus:2147483648"}) {
    EXPECT_THROW((void)topo::parse_topology_spec(bad), std::invalid_argument)
        << "spec '" << bad << "' should not parse";
  }
}

TEST(Scale, FactoryBuildsEveryFamily) {
  const auto t = topo::make_network("torus:64x64");
  EXPECT_EQ(t->node_count(), 4096);
  EXPECT_NE(dynamic_cast<const topo::TorusNetwork*>(t.get()), nullptr);

  const auto o = topo::make_network("omega:64");
  EXPECT_EQ(o->node_count(), 64);
  EXPECT_NE(dynamic_cast<const topo::OmegaNetwork*>(o.get()), nullptr);

  // Constructor-level validation still applies through the factory.
  EXPECT_THROW((void)topo::make_network("omega:6"), std::invalid_argument);
  EXPECT_THROW((void)topo::make_network("torus:1x8"), std::invalid_argument);
}

TEST(Scale, RouteLinksIntoMatchesRouteLinks) {
  const auto torus = topo::TorusNetwork::scale_32x32();
  const topo::OmegaNetwork omega(32);
  std::vector<topo::LinkId> arena;
  for (const topo::Network* net :
       {static_cast<const topo::Network*>(&torus),
        static_cast<const topo::Network*>(&omega)}) {
    for (topo::NodeId src = 0; src < net->node_count(); src += 113) {
      for (topo::NodeId dst = 0; dst < net->node_count(); dst += 127) {
        if (src == dst) continue;
        arena.clear();
        net->route_links_into(src, dst, arena);
        EXPECT_EQ(arena, net->route_links(src, dst));
      }
    }
  }
}

TEST(Scale, LinkSetCardinalityIsMaintainedByWordOps) {
  const auto net = topo::TorusNetwork::scale_64x64();
  core::LinkSet set(net.link_count());
  EXPECT_TRUE(set.empty());
  EXPECT_EQ(set.size(), 0);

  // Insert a scattered pattern; size() must track without rescans.
  int expected = 0;
  for (topo::LinkId id = 0; id < net.link_count(); id += 64) {
    set.insert(id);
    ++expected;
  }
  EXPECT_EQ(set.size(), expected);
  set.insert(0);  // duplicate insert is a no-op for the cardinality
  EXPECT_EQ(set.size(), expected);
  set.erase(0);
  EXPECT_EQ(set.size(), expected - 1);
  set.erase(0);  // duplicate erase likewise
  EXPECT_EQ(set.size(), expected - 1);

  // Word-level merge/subtract keep the incremental count consistent
  // with a popcount over the exposed words.
  core::LinkSet other(net.link_count());
  for (topo::LinkId id = 32; id < 4096; id += 32) other.insert(id);
  set.merge(other);
  int popcount = 0;
  for (const auto word : set.words()) popcount += std::popcount(word);
  EXPECT_EQ(set.size(), popcount);
  set.subtract(other);
  for (topo::LinkId id = 32; id < 4096; id += 32)
    EXPECT_FALSE(set.contains(id));
  set.clear();
  EXPECT_TRUE(set.empty());
  EXPECT_EQ(set.size(), 0);

  // The strict universe contract survives the word-level fast paths.
  core::LinkSet foreign(net.link_count() + 1);
  EXPECT_THROW((void)set.merge(foreign), std::invalid_argument);
  EXPECT_THROW((void)set.intersects(foreign), std::invalid_argument);
  EXPECT_THROW(set.insert(net.link_count()), std::out_of_range);
  EXPECT_THROW(set.erase(-1), std::out_of_range);
}

}  // namespace
