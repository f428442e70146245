#include <gtest/gtest.h>

#include <algorithm>

#include "patterns/named.hpp"
#include "patterns/random.hpp"
#include "sched/coloring.hpp"
#include "sched/fault.hpp"
#include "sched/greedy.hpp"
#include "topo/torus.hpp"
#include "util/rng.hpp"

namespace {

using namespace optdm;
using sched::route_around_faults;

core::LinkSet fail_links(const topo::TorusNetwork& net,
                         std::initializer_list<topo::LinkId> links) {
  core::LinkSet failed(net.link_count());
  for (const auto id : links) failed.insert(id);
  return failed;
}

TEST(Fault, NoFaultsIsPassthrough) {
  topo::TorusNetwork net(8, 8);
  util::Rng rng(201);
  const auto requests = patterns::random_pattern(64, 100, rng);
  const auto plan =
      route_around_faults(net, requests, core::LinkSet(net.link_count()));
  EXPECT_EQ(plan.rerouted, 0);
  ASSERT_EQ(plan.paths.size(), requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i)
    EXPECT_EQ(plan.paths[i].links, core::make_path(net, requests[i]).links);
}

TEST(Fault, ReroutesAroundASingleFailedFiber) {
  topo::TorusNetwork net(8, 8);
  // Fail the +x fiber out of node 0 (the direct route of 0 -> 1).
  const auto broken = net.neighbor_link(0, 0, +1);
  const auto failed = fail_links(net, {broken});
  const core::RequestSet requests{{0, 1}};
  const auto plan = route_around_faults(net, requests, failed);
  EXPECT_EQ(plan.rerouted, 1);
  EXPECT_EQ(std::find(plan.paths[0].links.begin(), plan.paths[0].links.end(),
                      broken),
            plan.paths[0].links.end());
  EXPECT_EQ(plan.paths[0].request, requests[0]);
  EXPECT_GT(plan.paths[0].hops(), 1);  // detour is longer
}

TEST(Fault, UnaffectedRequestsKeepDirectRoutes) {
  topo::TorusNetwork net(8, 8);
  const auto broken = net.neighbor_link(0, 0, +1);
  const auto failed = fail_links(net, {broken});
  const core::RequestSet requests{{0, 1}, {16, 17}};
  const auto plan = route_around_faults(net, requests, failed);
  EXPECT_EQ(plan.rerouted, 1);
  EXPECT_EQ(plan.paths[1].links,
            core::make_path(net, {16, 17}).links);
}

TEST(Fault, FailedProcessorLinkIsFatal) {
  topo::TorusNetwork net(8, 8);
  const auto failed = fail_links(net, {net.injection_link(5)});
  EXPECT_THROW(route_around_faults(net, {{5, 6}}, failed),
               std::runtime_error);
  const auto failed_ej = fail_links(net, {net.ejection_link(6)});
  EXPECT_THROW(route_around_faults(net, {{5, 6}}, failed_ej),
               std::runtime_error);
}

TEST(Fault, RepairedPatternStillSchedules) {
  topo::TorusNetwork net(8, 8);
  util::Rng rng(202);
  // Fail several scattered fibers.
  core::LinkSet failed(net.link_count());
  int failures = 0;
  for (const auto& link : net.links()) {
    if (link.kind != topo::LinkKind::kNetwork) continue;
    if (rng.bernoulli(0.03) && failures < 10) {
      failed.insert(link.id);
      ++failures;
    }
  }
  ASSERT_GT(failures, 0);

  const auto requests = patterns::random_pattern(64, 300, rng);
  const auto plan = route_around_faults(net, requests, failed);
  ASSERT_EQ(plan.paths.size(), requests.size());
  for (const auto& path : plan.paths)
    EXPECT_TRUE(std::none_of(
        path.links.begin(), path.links.end(),
        [&](topo::LinkId l) { return failed.contains(l); }));

  const auto schedule = sched::coloring_paths(net, plan.paths);
  EXPECT_EQ(schedule.validate_against(requests), std::nullopt);
}

TEST(Fault, DegreeInflatesGracefullyWithFaults) {
  // Detours concentrate load on surviving fibers: the degree grows but
  // the pattern remains schedulable.
  topo::TorusNetwork net(8, 8);
  const auto requests = patterns::nearest_neighbor(net);
  const auto healthy =
      sched::coloring_paths(net, core::route_all(net, requests)).degree();

  core::LinkSet failed(net.link_count());
  failed.insert(net.neighbor_link(0, 0, +1));
  failed.insert(net.neighbor_link(9, 1, +1));
  const auto plan = route_around_faults(net, requests, failed);
  EXPECT_GE(plan.rerouted, 2);
  const auto degraded = sched::coloring_paths(net, plan.paths).degree();
  EXPECT_GE(degraded, healthy);
  EXPECT_LE(degraded, healthy + 4);
}

class FaultProperty : public ::testing::TestWithParam<int> {};

TEST_P(FaultProperty, RandomFaultsRandomPatterns) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 40487 + 3);
  topo::TorusNetwork net(8, 8);
  core::LinkSet failed(net.link_count());
  // Up to 6 failed network fibers.
  int budget = static_cast<int>(rng.uniform(1, 6));
  for (const auto& link : net.links()) {
    if (budget == 0) break;
    if (link.kind != topo::LinkKind::kNetwork) continue;
    if (rng.bernoulli(0.02)) {
      failed.insert(link.id);
      --budget;
    }
  }
  const auto requests = patterns::random_pattern(
      64, static_cast<int>(rng.uniform(10, 200)), rng);
  const auto plan = route_around_faults(net, requests, failed);
  for (const auto& path : plan.paths) {
    EXPECT_TRUE(std::none_of(
        path.links.begin(), path.links.end(),
        [&](topo::LinkId l) { return failed.contains(l); }));
    EXPECT_EQ(path.links.front(), net.injection_link(path.request.src));
    EXPECT_EQ(path.links.back(), net.ejection_link(path.request.dst));
  }
  const auto schedule = sched::greedy_paths(net, plan.paths);
  EXPECT_EQ(schedule.validate_against(requests), std::nullopt);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultProperty, ::testing::Range(0, 8));

}  // namespace
