#include <gtest/gtest.h>

#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "aapc/torus_aapc.hpp"
#include "io/pattern_io.hpp"
#include "patterns/named.hpp"
#include "patterns/random.hpp"
#include "sched/bounds.hpp"
#include "sched/greedy.hpp"
#include "sched/ordered_aapc.hpp"
#include "topo/line.hpp"
#include "topo/torus.hpp"
#include "util/rng.hpp"

namespace {

using namespace optdm;

/// The paper's Fig. 2 pass algorithm, as `greedy_paths` ran it before it
/// became first-fit over per-link slot masks: open one configuration per
/// pass and scan every unplaced path in request order, adding each one the
/// configuration accepts.  Once a configuration uses every link, the rest
/// of the pass carries the remaining paths over without trying them (and
/// without counting them as rejections).
core::Schedule reference_greedy_paths(const topo::Network& net,
                                      std::span<const core::Path> paths,
                                      obs::SchedCounters& counters) {
  core::Schedule schedule;
  std::int64_t rejections = 0;
  int passes = 0;
  std::vector<std::size_t> remaining(paths.size());
  std::iota(remaining.begin(), remaining.end(), std::size_t{0});
  const auto total_links = static_cast<std::size_t>(net.link_count());
  while (!remaining.empty()) {
    core::Configuration config(net.link_count());
    std::size_t links_used = 0;
    bool saturated = false;
    std::size_t kept = 0;
    for (const auto i : remaining) {
      if (!saturated && config.add(paths[i])) {
        links_used += paths[i].links.size();
        saturated = links_used == total_links;
      } else {
        if (!saturated) ++rejections;
        remaining[kept++] = i;
      }
    }
    remaining.resize(kept);
    schedule.append(std::move(config));
    ++passes;
  }
  counters.greedy_passes = passes;
  counters.greedy_rejections = rejections;
  return schedule;
}

std::string schedule_text(const topo::Network& net,
                          const core::Schedule& schedule) {
  std::ostringstream out;
  io::write_schedule(out, net, schedule);
  return out.str();
}

/// First-fit must reproduce the pass algorithm exactly: the same schedule
/// text (configurations and their member order), passes and rejections.
/// Returns the degree.
int expect_matches_reference(const topo::Network& net,
                             std::span<const core::Path> paths) {
  obs::SchedCounters expected;
  const auto reference = reference_greedy_paths(net, paths, expected);
  obs::SchedCounters actual;
  const auto schedule = sched::greedy_paths(net, paths, &actual);
  EXPECT_EQ(schedule_text(net, schedule), schedule_text(net, reference));
  EXPECT_EQ(actual.greedy_passes, expected.greedy_passes);
  EXPECT_EQ(actual.greedy_rejections, expected.greedy_rejections);
  EXPECT_EQ(actual.greedy_degree, reference.degree());
  return schedule.degree();
}

TEST(Greedy, PaperFig3ReproducesThreeSlots) {
  // Fig. 3 of the paper: requests {(0,2),(1,3),(3,4),(2,4)} on a 5-node
  // linear array, processed in that order, need 3 slots under greedy while
  // 2 suffice.
  topo::LinearNetwork net(5);
  const core::RequestSet requests{{0, 2}, {1, 3}, {3, 4}, {2, 4}};
  const auto schedule = sched::greedy(net, requests);
  EXPECT_EQ(schedule.degree(), 3);
  EXPECT_EQ(schedule.validate_against(requests), std::nullopt);
  // Slot composition matches the paper: {(0,2),(3,4)}, {(1,3)}, {(2,4)}.
  EXPECT_EQ(schedule.slot_of({0, 2}), std::optional<int>(0));
  EXPECT_EQ(schedule.slot_of({3, 4}), std::optional<int>(0));
  EXPECT_EQ(schedule.slot_of({1, 3}), std::optional<int>(1));
  EXPECT_EQ(schedule.slot_of({2, 4}), std::optional<int>(2));
}

TEST(Greedy, Fig3OptimalOrderGivesTwoSlots) {
  topo::LinearNetwork net(5);
  // The order the paper identifies as optimal.
  const core::RequestSet requests{{0, 2}, {2, 4}, {1, 3}, {3, 4}};
  const auto schedule = sched::greedy(net, requests);
  EXPECT_EQ(schedule.degree(), 2);
  EXPECT_EQ(schedule.validate_against(requests), std::nullopt);
}

TEST(Greedy, EmptyPattern) {
  topo::TorusNetwork net(4, 4);
  const auto schedule = sched::greedy(net, {});
  EXPECT_EQ(schedule.degree(), 0);
}

TEST(Greedy, SingleRequestOneSlot) {
  topo::TorusNetwork net(4, 4);
  const auto schedule = sched::greedy(net, {{0, 5}});
  EXPECT_EQ(schedule.degree(), 1);
  EXPECT_EQ(schedule.configuration(0).size(), 1u);
}

TEST(Greedy, DuplicateRequestsNeedSeparateSlots) {
  topo::TorusNetwork net(4, 4);
  const core::RequestSet requests{{0, 5}, {0, 5}, {0, 5}};
  const auto schedule = sched::greedy(net, requests);
  EXPECT_EQ(schedule.degree(), 3);
  EXPECT_EQ(schedule.validate_against(requests), std::nullopt);
}

TEST(Greedy, NonConflictingRequestsShareOneSlot) {
  topo::TorusNetwork net(8, 8);
  // Disjoint single-hop requests.
  const core::RequestSet requests{{0, 1}, {2, 3}, {4, 5}, {16, 17}};
  const auto schedule = sched::greedy(net, requests);
  EXPECT_EQ(schedule.degree(), 1);
}

TEST(Greedy, FirstConfigurationIsMaximalForitsScan) {
  // Every request left out of configuration 0 must conflict with it.
  topo::TorusNetwork net(8, 8);
  util::Rng rng(3);
  const auto requests = patterns::random_pattern(64, 200, rng);
  const auto paths = core::route_all(net, requests);
  const auto schedule = sched::greedy_paths(net, paths);
  const auto& first = schedule.configuration(0);
  for (int slot = 1; slot < schedule.degree(); ++slot) {
    for (const auto& path : schedule.configuration(slot).paths()) {
      EXPECT_FALSE(first.accepts(path))
          << "request left out of slot 0 without a conflict";
    }
  }
}

class GreedyPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(GreedyPropertyTest, ValidAndBoundedOnRandomPatterns) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()));
  topo::TorusNetwork net(8, 8);
  const int conns = static_cast<int>(rng.uniform(1, 400));
  const auto requests = patterns::random_pattern(64, conns, rng);
  const auto paths = core::route_all(net, requests);
  const auto schedule = sched::greedy_paths(net, paths);
  EXPECT_EQ(schedule.validate_against(requests), std::nullopt);
  EXPECT_GE(schedule.degree(),
            sched::multiplexing_lower_bound(net, paths));
  // Greedy never exceeds (max conflict degree + 1) configurations.
  EXPECT_LE(schedule.degree(), conns);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GreedyPropertyTest, ::testing::Range(0, 12));

TEST(GreedyOracle, MatchesPassAlgorithmOnRandomPatterns) {
  for (const int side : {8, 12, 16}) {
    topo::TorusNetwork net(side, side);
    const int nodes = side * side;
    util::Rng rng(static_cast<std::uint64_t>(side));
    for (const int conns : {1, 50, 400, 2000, 4000}) {
      const auto requests = patterns::random_pattern(nodes, conns, rng);
      expect_matches_reference(net, core::route_all(net, requests));
    }
  }
}

TEST(GreedyOracle, MatchesPassAlgorithmWithDuplicatesAndWhenEmpty) {
  topo::TorusNetwork net(8, 8);
  EXPECT_EQ(expect_matches_reference(net, {}), 0);
  util::Rng rng(11);
  for (const int conns : {20, 300, 3000}) {
    const auto requests =
        patterns::random_pattern_with_replacement(64, conns, rng);
    expect_matches_reference(net, core::route_all(net, requests));
  }
  // 70 copies of one request need 70 configurations, past one mask block.
  const core::RequestSet copies(70, core::Request{0, 5});
  EXPECT_EQ(expect_matches_reference(net, core::route_all(net, copies)), 70);
}

TEST(GreedyOracle, MatchesPassAlgorithmWhenConfigurationsSaturate) {
  // On a two-node line, (0,1) and (1,0) together use all six links, so
  // each configuration saturates once it holds one of each.  The pattern
  // interleaves the two unevenly so saturation lands mid-pass, and it
  // runs to 140 configurations, across two mask-block boundaries.
  topo::LinearNetwork net(2);
  core::RequestSet requests;
  for (int i = 0; i < 140; ++i) {
    requests.push_back({0, 1});
    if (i % 3 != 2) requests.push_back({0, 1});
    requests.push_back({1, 0});
  }
  const auto paths = core::route_all(net, requests);
  const int degree = expect_matches_reference(net, paths);
  EXPECT_GT(degree, 128);
  const auto schedule = sched::greedy_paths(net, paths);
  int saturated = 0;
  for (const auto& config : schedule.configurations())
    if (config.used_links().size() == net.link_count()) ++saturated;
  EXPECT_GT(saturated, 64);
}

TEST(GreedyOracle, MatchesPassAlgorithmOnOrderedAapcAllToAll12x12) {
  // Ordered-AAPC's greedy step on a 12x12 all-to-all opens 289
  // configurations, crossing the 64- and 128-configuration mask blocks.
  // `ordered_aapc` itself moves the paths into the configurations.
  topo::TorusNetwork net(12, 12);
  const aapc::TorusAapc aapc(net);
  const auto requests = patterns::all_to_all(144);
  const auto paths = sched::aapc_ordered_paths(aapc, requests);
  EXPECT_EQ(expect_matches_reference(net, paths), 289);
  obs::SchedCounters unused;
  EXPECT_EQ(schedule_text(net, sched::ordered_aapc(aapc, requests)),
            schedule_text(net, reference_greedy_paths(net, paths, unused)));
}

TEST(GreedyOracle, RejectsAPathFromAnotherNetwork) {
  topo::TorusNetwork small(4, 4);
  topo::TorusNetwork big(8, 8);
  const auto paths = core::route_all(big, {{0, 5}});
  EXPECT_THROW(sched::greedy_paths(small, paths), std::invalid_argument);
}

}  // namespace
