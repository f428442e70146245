// Oracle test for sparse paths.  `core::Path` holds its link list and the
// link count of its network, no bitset.  Every consumer that used to read
// a per-path `LinkSet` now walks the link list; this file keeps a
// LinkSet-built reference of each one's semantics and checks the link-list
// versions against it on random and named patterns over torus, mesh,
// hypercube, omega and line networks:
//   conflicts_with, Configuration::accepts/add, validate_disjoint (verdict
//   and the message naming the first conflicting pair), intersects (the
//   fault router's test of a route against the failed links), and
//   heuristic_clique.
// It also pins that a path from another network throws at each of those
// sites, and that a route repeating a link is refused.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/configuration.hpp"
#include "core/conflict_graph.hpp"
#include "core/link_occupancy.hpp"
#include "core/linkset.hpp"
#include "core/path.hpp"
#include "patterns/named.hpp"
#include "patterns/random.hpp"
#include "sched/bounds.hpp"
#include "sched/fault.hpp"
#include "sched/greedy.hpp"
#include "topo/hypercube.hpp"
#include "topo/line.hpp"
#include "topo/mesh.hpp"
#include "topo/omega.hpp"
#include "topo/torus.hpp"
#include "util/rng.hpp"

namespace {

using namespace optdm;
using core::LinkSet;
using core::Path;

// ---------------------------------------------------------------------------
// The reference: every check as it ran over a per-path bitset.

LinkSet ref_set(const Path& path) {
  LinkSet set(path.link_count);
  for (const auto link : path.links) set.insert(link);
  return set;
}

bool ref_conflicts(const Path& a, const Path& b) {
  return ref_set(a).intersects(ref_set(b));
}

std::optional<std::string> ref_validate_disjoint(
    const std::vector<Path>& paths) {
  for (std::size_t i = 0; i < paths.size(); ++i)
    for (std::size_t j = i + 1; j < paths.size(); ++j)
      if (ref_conflicts(paths[i], paths[j]))
        return "configuration conflict between (" +
               std::to_string(paths[i].request.src) + "->" +
               std::to_string(paths[i].request.dst) + ") and (" +
               std::to_string(paths[j].request.src) + "->" +
               std::to_string(paths[j].request.dst) + ")";
  return std::nullopt;
}

std::vector<std::int32_t> ref_heuristic_clique(
    const std::vector<Path>& paths, const std::vector<int>& degrees) {
  std::vector<std::int32_t> order(paths.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::int32_t a, std::int32_t b) {
    const int da = degrees[static_cast<std::size_t>(a)];
    const int db = degrees[static_cast<std::size_t>(b)];
    return da != db ? da > db : a < b;
  });
  std::vector<std::int32_t> clique;
  for (const auto v : order) {
    if (degrees[static_cast<std::size_t>(v)] < static_cast<int>(clique.size()))
      break;
    const bool fits =
        std::all_of(clique.begin(), clique.end(), [&](std::int32_t member) {
          return ref_conflicts(paths[static_cast<std::size_t>(v)],
                               paths[static_cast<std::size_t>(member)]);
        });
    if (fits) clique.push_back(v);
  }
  return clique;
}

// ---------------------------------------------------------------------------
// Instances.

struct Instance {
  std::string name;
  std::shared_ptr<const topo::Network> net;
  core::RequestSet requests;
};

std::vector<Instance> instances() {
  auto torus = std::make_shared<topo::TorusNetwork>(8, 8);
  auto mesh = std::make_shared<topo::MeshNetwork>(8, 8);
  auto cube = std::make_shared<topo::HypercubeNetwork>(64);
  auto omega = std::make_shared<topo::OmegaNetwork>(64);
  auto line = std::make_shared<topo::LinearNetwork>(16);
  util::Rng rng(0x5a7a5e);
  std::vector<Instance> out;
  const std::vector<std::pair<std::string,
                              std::shared_ptr<const topo::Network>>>
      nets = {{"torus8x8", torus},
              {"mesh8x8", mesh},
              {"hypercube64", cube},
              {"omega64", omega},
              {"line16", line}};
  for (const auto& [name, net] : nets) {
    const int n = net->node_count();
    for (const int count : {n / 2, 2 * n, 6 * n})
      out.push_back({name + "/random" + std::to_string(count), net,
                     patterns::random_pattern(n, count, rng)});
    out.push_back({name + "/permutation", net,
                   patterns::random_permutation(n, rng)});
    out.push_back({name + "/ring", net, patterns::ring(n)});
  }
  for (const auto& [name, net] : nets) {
    if (net->node_count() != 64) continue;
    out.push_back({name + "/transpose", net, patterns::transpose(64)});
    out.push_back({name + "/bit-reversal", net, patterns::bit_reversal(64)});
    out.push_back({name + "/hypercube", net, patterns::hypercube(64)});
    out.push_back(
        {name + "/shuffle-exchange", net, patterns::shuffle_exchange(64)});
  }
  out.push_back({"torus8x8/nearest-neighbor", torus,
                 patterns::nearest_neighbor(*torus)});
  out.push_back({"torus8x8/all-to-all", torus, patterns::all_to_all(64)});
  out.push_back({"line16/all-to-all", line, patterns::all_to_all(16)});
  out.push_back(
      {"line16/linear-neighbors", line, patterns::linear_neighbors(16)});
  return out;
}

/// At most `limit` paths spread over the whole pattern, to bound the
/// quadratic reference checks.
std::vector<Path> sample(const std::vector<Path>& paths, std::size_t limit) {
  if (paths.size() <= limit) return paths;
  std::vector<Path> out;
  const std::size_t step = (paths.size() + limit - 1) / limit;
  for (std::size_t i = 0; i < paths.size(); i += step) out.push_back(paths[i]);
  return out;
}

// ---------------------------------------------------------------------------
// Agreement with the reference.

TEST(SparsePathOracle, ConflictsWithMatchesBitsets) {
  for (const auto& inst : instances()) {
    const auto paths = sample(core::route_all(*inst.net, inst.requests), 160);
    for (const auto& a : paths) {
      ASSERT_EQ(a.link_count, inst.net->link_count()) << inst.name;
      for (const auto& b : paths)
        ASSERT_EQ(a.conflicts_with(b), ref_conflicts(a, b)) << inst.name;
    }
  }
}

TEST(SparsePathOracle, ConfigurationMatchesBitsets) {
  util::Rng rng(17);
  for (const auto& inst : instances()) {
    auto paths = core::route_all(*inst.net, inst.requests);
    for (std::size_t i = paths.size(); i > 1; --i)
      std::swap(paths[i - 1], paths[static_cast<std::size_t>(rng.uniform(
                                  0, static_cast<std::int64_t>(i) - 1))]);
    // Fill configurations first-fit, copying and moving in turn, beside a
    // reference union per configuration.
    std::vector<core::Configuration> configs;
    std::vector<LinkSet> used;
    for (std::size_t i = 0; i < paths.size(); ++i) {
      const auto reference = ref_set(paths[i]);
      bool placed = false;
      for (std::size_t c = 0; c < configs.size() && !placed; ++c) {
        const bool expected = !used[c].intersects(reference);
        ASSERT_EQ(configs[c].accepts(paths[i]), expected) << inst.name;
        const bool added = i % 2 == 0 ? configs[c].add(paths[i])
                                      : configs[c].add(Path(paths[i]));
        ASSERT_EQ(added, expected) << inst.name;
        if (added) used[c].merge(reference);
        placed = added;
      }
      if (!placed) {
        configs.emplace_back(inst.net->link_count());
        used.emplace_back(inst.net->link_count());
        ASSERT_TRUE(configs.back().add(paths[i])) << inst.name;
        used.back().merge(reference);
      }
    }
    for (std::size_t c = 0; c < configs.size(); ++c) {
      const auto got = configs[c].used_links().words();
      const auto want = used[c].words();
      ASSERT_TRUE(std::equal(got.begin(), got.end(), want.begin(), want.end()))
          << inst.name;
      ASSERT_EQ(configs[c].used_links().size(), used[c].size()) << inst.name;
      ASSERT_EQ(configs[c].validate(), std::nullopt) << inst.name;
    }
  }
}

TEST(SparsePathOracle, ValidateDisjointMatchesPairScan) {
  util::Rng rng(23);
  for (const auto& inst : instances()) {
    const auto paths = core::route_all(*inst.net, inst.requests);
    const auto schedule = sched::greedy_paths(*inst.net, paths);
    for (const auto& config : schedule.configurations()) {
      const auto& members = config.paths();
      ASSERT_EQ(core::validate_disjoint(members), std::nullopt) << inst.name;
      // One member of another configuration, dropped in at a random spot,
      // makes a conflict whose first pair the message must name.
      std::vector<Path> spoiled = members;
      const auto& intruder = paths[static_cast<std::size_t>(
          rng.uniform(0, static_cast<std::int64_t>(paths.size()) - 1))];
      spoiled.insert(spoiled.begin() +
                         rng.uniform(0, static_cast<std::int64_t>(
                                            spoiled.size())),
                     intruder);
      ASSERT_EQ(core::validate_disjoint(spoiled),
                ref_validate_disjoint(spoiled))
          << inst.name;
    }
    // Random subsets: mostly conflicting, sometimes not.
    for (int trial = 0; trial < 40; ++trial) {
      std::vector<Path> subset;
      const auto size = rng.uniform(0, 8);
      for (std::int64_t k = 0; k < size; ++k)
        subset.push_back(paths[static_cast<std::size_t>(
            rng.uniform(0, static_cast<std::int64_t>(paths.size()) - 1))]);
      ASSERT_EQ(core::validate_disjoint(subset), ref_validate_disjoint(subset))
          << inst.name;
    }
  }
}

TEST(SparsePathOracle, FaultIntersectionMatchesBitsets) {
  util::Rng rng(29);
  for (const auto& inst : instances()) {
    const auto paths = sample(core::route_all(*inst.net, inst.requests), 400);
    for (const double density : {0.0, 0.01, 0.05, 0.2, 1.0}) {
      LinkSet failed(inst.net->link_count());
      for (int l = 0; l < inst.net->link_count(); ++l)
        if (rng.bernoulli(density)) failed.insert(l);
      for (const auto& path : paths)
        ASSERT_EQ(core::intersects(failed, path),
                  ref_set(path).intersects(failed))
            << inst.name;
    }
  }
}

TEST(SparsePathOracle, FaultRouterMatchesBitsets) {
  topo::TorusNetwork net(8, 8);
  util::Rng rng(31);
  for (int trial = 0; trial < 10; ++trial) {
    LinkSet failed(net.link_count());
    for (int k = 0; k < 12; ++k)
      failed.insert(static_cast<topo::LinkId>(
          rng.uniform(0, net.network_link_count() - 1)));
    const auto requests = patterns::random_pattern(64, 200, rng);
    const auto plan = sched::try_route_around_faults(net, requests, failed);
    for (const auto& path : plan.paths)
      EXPECT_FALSE(ref_set(path).intersects(failed));
    // A request is repaired or unroutable, never both; the direct routes
    // the reference calls clean are kept unchanged.
    EXPECT_EQ(plan.routed.size() + plan.unroutable.size(), requests.size());
    for (std::size_t k = 0; k < plan.routed.size(); ++k) {
      const auto direct = core::make_path(
          net, requests[static_cast<std::size_t>(plan.routed[k])]);
      if (!ref_set(direct).intersects(failed)) {
        EXPECT_EQ(plan.paths[k].links, direct.links);
      }
    }
  }
}

TEST(SparsePathOracle, HeuristicCliqueMatchesBitsets) {
  for (const auto& inst : instances()) {
    const auto paths = sample(core::route_all(*inst.net, inst.requests), 600);
    const core::LinkOccupancy index(paths);
    const auto degrees = index.conflict_degrees();
    EXPECT_EQ(sched::heuristic_clique(paths, degrees),
              ref_heuristic_clique(paths, degrees))
        << inst.name;
  }
}

// ---------------------------------------------------------------------------
// Paths from another network still throw where they threw before.

TEST(SparsePathOracle, ForeignPathsThrowAtEverySite) {
  topo::LinearNetwork line(5);
  topo::TorusNetwork torus(4, 4);
  const auto on_line = core::make_path(line, {0, 2});
  const auto on_torus = core::make_path(torus, {0, 5});
  ASSERT_NE(on_line.link_count, on_torus.link_count);

  EXPECT_THROW((void)on_line.conflicts_with(on_torus), std::invalid_argument);
  EXPECT_THROW((void)ref_conflicts(on_line, on_torus), std::invalid_argument);

  core::Configuration config(line.link_count());
  EXPECT_THROW((void)config.accepts(on_torus), std::invalid_argument);
  EXPECT_THROW((void)config.add(on_torus), std::invalid_argument);
  EXPECT_THROW((void)config.add(Path(on_torus)), std::invalid_argument);
  EXPECT_TRUE(config.empty());

  const std::vector<Path> mixed = {on_line, on_torus};
  EXPECT_THROW((void)core::validate_disjoint(mixed), std::invalid_argument);

  EXPECT_THROW((void)core::intersects(LinkSet(line.link_count()), on_torus),
               std::invalid_argument);
  // The fault router: a failed set over more links than the torus passes
  // the processor-link probes, then meets a torus path.
  EXPECT_THROW((void)sched::try_route_around_faults(
                   torus, {{0, 5}}, LinkSet(torus.link_count() + 1)),
               std::invalid_argument);

  EXPECT_THROW((void)core::LinkOccupancy(mixed), std::invalid_argument);
  EXPECT_THROW((void)core::ConflictGraph(mixed), std::invalid_argument);
  EXPECT_THROW((void)sched::greedy_paths(line, mixed), std::invalid_argument);
  EXPECT_THROW((void)sched::greedy_paths(line, std::vector<Path>(mixed)),
               std::invalid_argument);

  // heuristic_clique compares a candidate with the clique's members only,
  // so the foreign path throws once a member precedes it.
  const std::vector<int> degrees = {1, 1};
  EXPECT_THROW((void)sched::heuristic_clique(mixed, degrees),
               std::invalid_argument);
  EXPECT_THROW((void)ref_heuristic_clique(mixed, degrees),
               std::invalid_argument);
  const std::vector<Path> alone = {on_torus};
  EXPECT_EQ(sched::heuristic_clique(alone, std::vector<int>{0}),
            std::vector<std::int32_t>{0});
}

/// The directed link from `from` to `to`.
topo::LinkId link_between(const topo::Network& net, topo::NodeId from,
                          topo::NodeId to) {
  for (const auto& link : net.links())
    if (link.from == from && link.to == to) return link.id;
  throw std::logic_error("no such link");
}

TEST(SparsePathOracle, RouteRepeatingALinkThrows) {
  topo::LinearNetwork line(5);
  // 0 -> 1 -> 0 -> 1 -> 2 is contiguous but uses 0->1 twice.
  const std::vector<topo::LinkId> looped = {
      link_between(line, 0, 1), link_between(line, 1, 0),
      link_between(line, 0, 1), link_between(line, 1, 2)};
  try {
    (void)core::make_path_with_links(line, {0, 2}, looped);
    FAIL() << "a route repeating a link must be refused";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("twice"), std::string::npos);
  }
  // The same detour on a torus, around a four-link cycle and back.
  topo::TorusNetwork torus(4, 4);
  const topo::NodeId a = 0, b = 1, c = 5, d = 4;
  const std::vector<topo::LinkId> cycle = {
      link_between(torus, a, b), link_between(torus, b, c),
      link_between(torus, c, d), link_between(torus, d, a),
      link_between(torus, a, b)};
  EXPECT_THROW((void)core::make_path_with_links(torus, {a, b}, cycle),
               std::invalid_argument);
  // Without the repeat the same links route a -> d.
  const std::vector<topo::LinkId> once(cycle.begin(), cycle.begin() + 3);
  const auto path = core::make_path_with_links(torus, {a, d}, once);
  EXPECT_EQ(path.hops(), 3);
  EXPECT_EQ(path.link_count, torus.link_count());
}

}  // namespace
