#include <gtest/gtest.h>

#include "patterns/named.hpp"
#include "patterns/random.hpp"
#include "sched/bounds.hpp"
#include "sched/coloring.hpp"
#include "sched/combined.hpp"
#include "sched/ordered_aapc.hpp"
#include "topo/torus.hpp"
#include "util/rng.hpp"

namespace {

using namespace optdm;

class CombinedTest : public ::testing::Test {
 protected:
  CombinedTest() : net_(8, 8), aapc_(net_) {}
  topo::TorusNetwork net_;
  aapc::TorusAapc aapc_;
};

TEST_F(CombinedTest, TakesTheMinimumOfBothAlgorithms) {
  util::Rng rng(3);
  for (const int conns : {50, 400, 2000, 4032}) {
    const auto requests = patterns::random_pattern(64, conns, rng);
    const int by_coloring = sched::coloring(net_, requests).degree();
    const int by_aapc = sched::ordered_aapc(aapc_, requests).degree();
    const auto result = sched::combined_with_winner(aapc_, requests);
    EXPECT_EQ(result.schedule.degree(), std::min(by_coloring, by_aapc));
    if (result.winner == sched::CombinedWinner::kColoring)
      EXPECT_LE(by_coloring, by_aapc);
    else
      EXPECT_LT(by_aapc, by_coloring);
    EXPECT_EQ(result.schedule.validate_against(requests), std::nullopt);
  }
}

TEST_F(CombinedTest, AllToAllWonByAapc) {
  const auto requests = patterns::all_to_all(64);
  const auto result = sched::combined_with_winner(aapc_, requests);
  EXPECT_EQ(result.winner, sched::CombinedWinner::kOrderedAapc);
  EXPECT_EQ(result.schedule.degree(), 64);
}

TEST_F(CombinedTest, SparsePatternWonByColoring) {
  util::Rng rng(9);
  const auto requests = patterns::random_pattern(64, 100, rng);
  const auto result = sched::combined_with_winner(aapc_, requests);
  // At 100 connections coloring wins (paper Table 1 row 1).
  EXPECT_EQ(result.winner, sched::CombinedWinner::kColoring);
}

TEST_F(CombinedTest, ConvenienceOverloadsAgree) {
  util::Rng rng(4);
  const auto requests = patterns::random_pattern(64, 200, rng);
  EXPECT_EQ(sched::combined(aapc_, requests).degree(),
            sched::combined(net_, requests).degree());
}

TEST_F(CombinedTest, LowerBoundIsThePatternsMultiplexingBound) {
  // The combined scheduler computes the bound once, from its coloring
  // branch's routes and index; it must equal the stand-alone bound.
  util::Rng rng(5);
  std::vector<core::RequestSet> patterns_to_check = {
      {}, patterns::all_to_all(64), patterns::ring(64),
      patterns::hypercube(64)};
  for (const int conns : {10, 300, 2000})
    patterns_to_check.push_back(patterns::random_pattern(64, conns, rng));
  for (const auto& requests : patterns_to_check) {
    const auto result = sched::combined_with_winner(aapc_, requests);
    EXPECT_EQ(result.lower_bound,
              sched::multiplexing_lower_bound(
                  net_, core::route_all(net_, requests)))
        << requests.size() << " connections";
    EXPECT_GE(result.schedule.degree(), result.lower_bound);
  }
}

TEST(CombinedWinnerName, ToString) {
  EXPECT_EQ(sched::to_string(sched::CombinedWinner::kColoring), "coloring");
  EXPECT_EQ(sched::to_string(sched::CombinedWinner::kOrderedAapc),
            "ordered-aapc");
}

}  // namespace
