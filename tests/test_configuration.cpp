#include <gtest/gtest.h>

#include <random>

#include "core/configuration.hpp"
#include "core/linkset.hpp"
#include "core/schedule.hpp"
#include "topo/line.hpp"
#include "topo/torus.hpp"

namespace {

using namespace optdm;
using core::Configuration;
using core::LinkSet;
using core::make_path;
using core::Schedule;

/// Reference oracle for `validate_disjoint`: the exhaustive pair scan the
/// linear check replaced, with its message format.
std::optional<std::string> pair_scan(const std::vector<core::Path>& paths) {
  for (std::size_t i = 0; i < paths.size(); ++i)
    for (std::size_t j = i + 1; j < paths.size(); ++j)
      if (paths[i].occupancy.intersects(paths[j].occupancy))
        return "configuration conflict between (" +
               std::to_string(paths[i].request.src) + "->" +
               std::to_string(paths[i].request.dst) + ") and (" +
               std::to_string(paths[j].request.src) + "->" +
               std::to_string(paths[j].request.dst) + ")";
  return std::nullopt;
}

TEST(LinkSetTest, InsertContainsErase) {
  LinkSet set(100);
  EXPECT_TRUE(set.empty());
  set.insert(3);
  set.insert(64);
  set.insert(99);
  EXPECT_TRUE(set.contains(3));
  EXPECT_TRUE(set.contains(64));
  EXPECT_FALSE(set.contains(4));
  EXPECT_EQ(set.size(), 3);
  set.erase(64);
  EXPECT_FALSE(set.contains(64));
  EXPECT_EQ(set.size(), 2);
}

TEST(LinkSetTest, OutOfRangeThrows) {
  // Regression: `contains` used to silently return false for
  // out-of-universe ids while insert/erase threw — the same caller bug
  // (mixing networks) was loud or silent depending on the access path.
  // The policy is now uniformly strict.
  LinkSet set(10);
  EXPECT_THROW(set.insert(10), std::out_of_range);
  EXPECT_THROW(set.insert(-1), std::out_of_range);
  EXPECT_THROW(set.erase(10), std::out_of_range);
  EXPECT_THROW(set.erase(-1), std::out_of_range);
  EXPECT_THROW(set.contains(10), std::out_of_range);
  EXPECT_THROW(set.contains(-1), std::out_of_range);
  // In-universe queries are unaffected.
  set.insert(9);
  EXPECT_TRUE(set.contains(9));
  EXPECT_FALSE(set.contains(0));
}

TEST(LinkSetTest, EmptyUniverseContainsThrows) {
  LinkSet set;  // universe of 0 links: every id is out of universe
  EXPECT_THROW(set.contains(0), std::out_of_range);
}

TEST(LinkSetTest, IntersectsAndMerge) {
  LinkSet a(128), b(128);
  a.insert(5);
  a.insert(70);
  b.insert(71);
  EXPECT_FALSE(a.intersects(b));
  b.insert(70);
  EXPECT_TRUE(a.intersects(b));
  a.merge(b);
  EXPECT_TRUE(a.contains(71));
  a.subtract(b);
  EXPECT_FALSE(a.contains(70));
  EXPECT_TRUE(a.contains(5));
}

TEST(LinkSetTest, UniverseMismatchThrows) {
  // Regression: these used to truncate silently to the smaller word count,
  // so comparing paths from different networks produced garbage — e.g. two
  // sets over 100- and 200-link universes "intersected" iff the collision
  // happened to fall in the first 128 bits.
  LinkSet small(100), large(200);
  small.insert(70);
  large.insert(70);
  EXPECT_THROW(small.intersects(large), std::invalid_argument);
  EXPECT_THROW(large.intersects(small), std::invalid_argument);
  EXPECT_THROW(small.merge(large), std::invalid_argument);
  EXPECT_THROW(large.merge(small), std::invalid_argument);
  EXPECT_THROW(small.subtract(large), std::invalid_argument);
  EXPECT_THROW(large.subtract(small), std::invalid_argument);
  // Same universe still works.
  LinkSet same(100);
  same.insert(70);
  EXPECT_TRUE(small.intersects(same));
}

TEST(LinkSetTest, CrossNetworkPathsThrow) {
  // conflicts_with between paths routed on different networks is a caller
  // bug, not "no conflict".
  topo::LinearNetwork line(5);
  topo::TorusNetwork torus(4, 4);
  const auto on_line = make_path(line, {0, 2});
  const auto on_torus = make_path(torus, {0, 5});
  EXPECT_THROW((void)on_line.conflicts_with(on_torus), std::invalid_argument);
  Configuration config(line.link_count());
  EXPECT_THROW((void)config.accepts(on_torus), std::invalid_argument);
}

TEST(LinkSetTest, ClearEmpties) {
  LinkSet a(64);
  a.insert(0);
  a.insert(63);
  a.clear();
  EXPECT_TRUE(a.empty());
  EXPECT_EQ(a.size(), 0);
}

TEST(ConfigurationTest, AddRefusesConflicts) {
  topo::LinearNetwork net(5);
  Configuration config(net.link_count());
  EXPECT_TRUE(config.add(make_path(net, {0, 2})));
  EXPECT_FALSE(config.add(make_path(net, {1, 3})));  // shares 1->2
  EXPECT_TRUE(config.add(make_path(net, {3, 4})));
  EXPECT_EQ(config.size(), 2u);
  EXPECT_EQ(config.validate(), std::nullopt);
}

TEST(ConfigurationTest, AcceptsIsNonMutating) {
  topo::LinearNetwork net(5);
  Configuration config(net.link_count());
  const auto path = make_path(net, {0, 2});
  EXPECT_TRUE(config.accepts(path));
  EXPECT_TRUE(config.accepts(path));  // still true: nothing was added
  config.add(path);
  EXPECT_FALSE(config.accepts(path));
}

TEST(ConfigurationTest, UsedLinksIsUnion) {
  topo::LinearNetwork net(5);
  Configuration config(net.link_count());
  const auto a = make_path(net, {0, 1});
  const auto b = make_path(net, {3, 4});
  config.add(a);
  config.add(b);
  EXPECT_EQ(config.used_links().size(),
            a.occupancy.size() + b.occupancy.size());
}

TEST(ScheduleTest, AppendRejectsEmpty) {
  Schedule schedule;
  EXPECT_THROW(schedule.append(Configuration{}), std::invalid_argument);
  EXPECT_EQ(schedule.degree(), 0);
}

TEST(ScheduleTest, DegreeAndSlotLookup) {
  topo::LinearNetwork net(5);
  Schedule schedule;
  Configuration c1(net.link_count());
  c1.add(make_path(net, {0, 2}));
  Configuration c2(net.link_count());
  c2.add(make_path(net, {1, 3}));
  schedule.append(std::move(c1));
  schedule.append(std::move(c2));
  EXPECT_EQ(schedule.degree(), 2);
  EXPECT_EQ(schedule.connection_count(), 2u);
  EXPECT_EQ(schedule.slot_of({0, 2}), std::optional<int>(0));
  EXPECT_EQ(schedule.slot_of({1, 3}), std::optional<int>(1));
  EXPECT_EQ(schedule.slot_of({4, 0}), std::nullopt);
}

TEST(ScheduleTest, ValidateAgainstDetectsMissingRequest) {
  topo::LinearNetwork net(5);
  Schedule schedule;
  Configuration c1(net.link_count());
  c1.add(make_path(net, {0, 2}));
  schedule.append(std::move(c1));
  EXPECT_EQ(schedule.validate_against({{0, 2}}), std::nullopt);
  EXPECT_NE(schedule.validate_against({{0, 2}, {1, 3}}), std::nullopt);
  EXPECT_NE(schedule.validate_against({}), std::nullopt);
}

TEST(ScheduleTest, ValidateAgainstHandlesMultisets) {
  topo::LinearNetwork net(5);
  Schedule schedule;
  Configuration c1(net.link_count());
  c1.add(make_path(net, {0, 2}));
  Configuration c2(net.link_count());
  c2.add(make_path(net, {0, 2}));
  schedule.append(std::move(c1));
  schedule.append(std::move(c2));
  // Two scheduled instances require two pattern instances.
  EXPECT_NE(schedule.validate_against({{0, 2}}), std::nullopt);
  EXPECT_EQ(schedule.validate_against({{0, 2}, {0, 2}}), std::nullopt);
}

TEST(ConfigurationTest, LinearValidateMatchesThePairScan) {
  // Seeded path sets on the 8x8 torus: random multisets (mostly
  // conflicting, at every position) and greedily packed configurations
  // (never conflicting).  The linear check must agree with the pair scan
  // on the verdict and, for conflicts, name the same first pair.
  topo::TorusNetwork net(8, 8);
  std::mt19937 rng(12);
  std::uniform_int_distribution<int> node(0, net.node_count() - 1);
  const auto random_path = [&] {
    for (;;) {
      const int src = node(rng);
      const int dst = node(rng);
      if (src != dst) return make_path(net, {src, dst});
    }
  };
  int conflicting = 0;
  for (int trial = 0; trial < 400; ++trial) {
    std::vector<core::Path> paths;
    const int size = 1 + trial % 24;
    for (int i = 0; i < size; ++i) paths.push_back(random_path());
    const auto expected = pair_scan(paths);
    conflicting += expected.has_value();
    EXPECT_EQ(core::validate_disjoint(paths), expected) << "trial " << trial;

    Configuration packed(net.link_count());
    for (auto& path : paths) packed.add(path);
    EXPECT_EQ(packed.validate(), std::nullopt) << "trial " << trial;
    EXPECT_EQ(pair_scan(packed.paths()), std::nullopt) << "trial " << trial;
  }
  // Both verdicts are exercised.
  EXPECT_GT(conflicting, 100);
  EXPECT_LT(conflicting, 400);
  EXPECT_EQ(core::validate_disjoint(std::vector<core::Path>{}), std::nullopt);
}

TEST(ConfigurationTest, LinearValidateNamesTheFirstPairNotTheFirstCollision) {
  // The running union first trips at index 2, on the pair (1, 2), but
  // the first conflicting pair in (i, j) order is (0, 3).  The message
  // must name (0, 3), as the pair scan always did.
  topo::LinearNetwork net(5);
  const std::vector<core::Path> paths = {
      make_path(net, {0, 1}), make_path(net, {2, 3}), make_path(net, {2, 4}),
      make_path(net, {0, 2})};
  ASSERT_EQ(pair_scan(paths),
            std::optional<std::string>(
                "configuration conflict between (0->1) and (0->2)"));
  EXPECT_EQ(core::validate_disjoint(paths), pair_scan(paths));
}

}  // namespace
