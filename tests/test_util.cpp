#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <vector>

#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using optdm::util::Accumulator;
using optdm::util::CliArgs;
using optdm::util::percentile;
using optdm::util::Rng;
using optdm::util::Table;

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(12345);
  Rng b(12345);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.uniform(-3, 12);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 12);
  }
}

TEST(Rng, UniformDegenerateRangeReturnsLow) {
  Rng rng(7);
  EXPECT_EQ(rng.uniform(5, 5), 5);
  EXPECT_EQ(rng.uniform(5, 4), 5);
}

TEST(Rng, UniformCoversFullRange) {
  Rng rng(99);
  std::vector<int> seen(6, 0);
  for (int i = 0; i < 6000; ++i)
    ++seen[static_cast<std::size_t>(rng.uniform(0, 5))];
  for (const auto count : seen) EXPECT_GT(count, 800);  // ~1000 expected
}

TEST(Rng, UniformRealInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.uniform_real();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, BernoulliProbabilityRoughlyRespected) {
  Rng rng(11);
  int hits = 0;
  for (int i = 0; i < 10000; ++i)
    if (rng.bernoulli(0.25)) ++hits;
  EXPECT_NEAR(hits, 2500, 200);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(42);
  Rng b = a.split();
  // The split stream should not reproduce the parent stream.
  Rng a2(42);
  a2.split();
  EXPECT_NE(a.next_u64(), b.next_u64());
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(5);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  auto copy = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, copy);
}

TEST(Accumulator, BasicMoments) {
  Accumulator acc;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) acc.add(x);
  EXPECT_EQ(acc.count(), 8u);
  EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
  EXPECT_DOUBLE_EQ(acc.min(), 2.0);
  EXPECT_DOUBLE_EQ(acc.max(), 9.0);
  EXPECT_DOUBLE_EQ(acc.sum(), 40.0);
  EXPECT_NEAR(acc.variance(), 32.0 / 7.0, 1e-12);
}

TEST(Accumulator, EmptyIsSafe) {
  Accumulator acc;
  EXPECT_EQ(acc.count(), 0u);
  EXPECT_EQ(acc.mean(), 0.0);
  EXPECT_EQ(acc.variance(), 0.0);
}

TEST(Accumulator, SingleSampleHasZeroVariance) {
  Accumulator acc;
  acc.add(3.5);
  EXPECT_EQ(acc.variance(), 0.0);
  EXPECT_DOUBLE_EQ(acc.mean(), 3.5);
}

TEST(Percentile, NearestRank) {
  const std::vector<double> v{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT_DOUBLE_EQ(percentile(v, 50), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 10.0);
  EXPECT_DOUBLE_EQ(percentile(v, 10), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0), 1.0);
}

TEST(Percentile, EmptySampleIsZero) {
  EXPECT_EQ(percentile(std::vector<double>{}, 50), 0.0);
}

TEST(Percentile, SingleSampleAnswersEveryP) {
  const std::vector<double> v{7.5};
  for (const double p : {0.0, 50.0, 99.0, 100.0})
    EXPECT_DOUBLE_EQ(percentile(v, p), 7.5) << "p=" << p;
}

TEST(Percentile, TwoSamplesFollowNearestRank) {
  // rank = ceil(p/100 * 2): p=0 and p=50 select the first sample (rank
  // 0 clamps to 1, rank 1), anything above 50 the second.
  const std::vector<double> v{1.0, 2.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 99), 2.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 2.0);
}

TEST(TableTest, AlignsColumns) {
  Table t({"a", "bbbb"});
  t.add_row({"xxxxx", "y"});
  const auto s = t.to_string();
  EXPECT_NE(s.find("a      bbbb"), std::string::npos);
  EXPECT_NE(s.find("xxxxx  y"), std::string::npos);
}

TEST(TableTest, RejectsMismatchedRow) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only one"}), std::invalid_argument);
}

TEST(TableTest, FormatHelpers) {
  EXPECT_EQ(Table::fmt(7.0, 1), "7.0");
  EXPECT_EQ(Table::fmt(6.333, 1), "6.3");
  EXPECT_EQ(Table::fmt(std::int64_t{42}), "42");
}

TEST(Cli, ParsesNamedAndPositional) {
  const char* argv[] = {"prog", "--n=8", "--verbose", "file.txt",
                        "--ratio=2.5"};
  CliArgs args(5, argv);
  EXPECT_EQ(args.get_int("n", 0), 8);
  EXPECT_TRUE(args.get_bool("verbose"));
  EXPECT_FALSE(args.get_bool("quiet"));
  EXPECT_DOUBLE_EQ(args.get_double("ratio", 0), 2.5);
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "file.txt");
  EXPECT_EQ(args.program(), "prog");
}

TEST(Cli, FallbacksWhenAbsent) {
  const char* argv[] = {"prog"};
  CliArgs args(1, argv);
  EXPECT_EQ(args.get("missing", "dflt"), "dflt");
  EXPECT_EQ(args.get_int("missing", -7), -7);
  EXPECT_FALSE(args.has("missing"));
}

}  // namespace
