#include <gtest/gtest.h>

#include <sstream>

#include "io/pattern_io.hpp"
#include "patterns/random.hpp"
#include "sched/bounds.hpp"
#include "sched/coloring.hpp"
#include "sched/exact.hpp"
#include "sched/greedy.hpp"
#include "topo/line.hpp"
#include "topo/torus.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace {

using namespace optdm;

TEST(Exact, Fig3OptimumIsTwo) {
  topo::LinearNetwork net(5);
  const core::RequestSet requests{{0, 2}, {1, 3}, {3, 4}, {2, 4}};
  const auto schedule = sched::exact(net, requests);
  ASSERT_TRUE(schedule.has_value());
  EXPECT_EQ(schedule->degree(), 2);
  EXPECT_EQ(schedule->validate_against(requests), std::nullopt);
}

TEST(Exact, EmptyPattern) {
  topo::TorusNetwork net(4, 4);
  const auto schedule = sched::exact(net, {});
  ASSERT_TRUE(schedule.has_value());
  EXPECT_EQ(schedule->degree(), 0);
}

TEST(Exact, RefusesOversizedInstances) {
  topo::TorusNetwork net(8, 8);
  util::Rng rng(1);
  const auto requests = patterns::random_pattern(64, 100, rng);
  sched::ExactOptions options;
  options.max_vertices = 50;
  EXPECT_EQ(sched::exact(net, requests, options), std::nullopt);
}

TEST(Exact, CliqueForcesDegree) {
  topo::TorusNetwork net(8, 8);
  core::RequestSet requests;
  for (topo::NodeId d = 1; d <= 6; ++d) requests.push_back({0, d});
  const auto schedule = sched::exact(net, requests);
  ASSERT_TRUE(schedule.has_value());
  EXPECT_EQ(schedule->degree(), 6);
}

TEST(Exact, IndependentRequestsNeedOneSlot) {
  topo::TorusNetwork net(8, 8);
  const core::RequestSet requests{{0, 1}, {2, 3}, {8, 9}, {10, 11}};
  const auto schedule = sched::exact(net, requests);
  ASSERT_TRUE(schedule.has_value());
  EXPECT_EQ(schedule->degree(), 1);
}

class ExactVsHeuristics : public ::testing::TestWithParam<int> {};

TEST_P(ExactVsHeuristics, ExactNeverWorseAndBoundedBelow) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729);
  topo::TorusNetwork net(4, 4);
  const int conns = static_cast<int>(rng.uniform(2, 18));
  const auto requests = patterns::random_pattern(16, conns, rng);
  const auto paths = core::route_all(net, requests);

  const auto exact = sched::exact_paths(net, paths);
  ASSERT_TRUE(exact.has_value());
  EXPECT_EQ(exact->validate_against(requests), std::nullopt);

  const int lower = sched::multiplexing_lower_bound(net, paths);
  EXPECT_GE(exact->degree(), lower);
  EXPECT_LE(exact->degree(), sched::greedy_paths(net, paths).degree());
  EXPECT_LE(exact->degree(), sched::coloring_paths(net, paths).degree());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExactVsHeuristics, ::testing::Range(0, 16));

std::uint64_t schedule_fingerprint(const topo::Network& net,
                                   const core::Schedule& schedule) {
  std::ostringstream text;
  io::write_schedule(text, net, schedule);
  return util::fnv1a64(text.str());
}

TEST(Exact, SchedulesArePinned) {
  // The witness the search returns depends on its vertex order, its
  // initial upper bound (the coloring heuristic) and its clique; none of
  // them may move with how the conflict relation is stored.  These are the
  // ExactVsHeuristics instances.
  const std::uint64_t goldens[16] = {
      0xd76ca30fdbd58bcdULL, 0x9ef7f92434d93972ULL, 0x929e29a823f3989dULL,
      0x239d041e7ff67d69ULL, 0xf6f9f8fb1bb5c354ULL, 0xfcd478934eab7749ULL,
      0x4610e77304e8d90eULL, 0x509a495537253e8cULL, 0xf30af5e5e4f9604eULL,
      0x3b3645ed95e899e2ULL, 0x2045ba6a88a9570eULL, 0x8049833660df2affULL,
      0xf38f834fc3c60c9eULL, 0x8f5c05f0481e16b2ULL, 0xc28e564e0725e477ULL,
      0x673ace4bf3c6ece9ULL,
  };
  topo::TorusNetwork net(4, 4);
  for (int seed = 0; seed < 16; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    util::Rng rng(static_cast<std::uint64_t>(seed) * 104729);
    const int conns = static_cast<int>(rng.uniform(2, 18));
    const auto paths =
        core::route_all(net, patterns::random_pattern(16, conns, rng));
    const auto exact = sched::exact_paths(net, paths);
    ASSERT_TRUE(exact.has_value());
    EXPECT_EQ(schedule_fingerprint(net, *exact), goldens[seed]);
  }

  // An instance that backtracks: the search visits 1 609 nodes, so a
  // budget of 1 609 runs out on the last of them and 1 610 closes it.
  util::Rng rng(29 * 7919 + 1);
  const auto paths =
      core::route_all(net, patterns::random_pattern(16, 40, rng));
  sched::ExactOptions options;
  options.node_budget = 1609;
  EXPECT_EQ(sched::exact_paths(net, paths, options), std::nullopt);
  options.node_budget = 1610;
  const auto exact = sched::exact_paths(net, paths, options);
  ASSERT_TRUE(exact.has_value());
  EXPECT_EQ(exact->degree(), 5);
  EXPECT_EQ(schedule_fingerprint(net, *exact), 0x062190ab661942f1ULL);
}

}  // namespace
