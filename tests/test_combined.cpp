#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "io/pattern_io.hpp"
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

std::string schedule_text(const topo::Network& net,
                          const core::Schedule& schedule) {
  std::ostringstream out;
  io::write_schedule(out, net, schedule);
  return out.str();
}

TEST(CombinedComposition, MatchesTheSequentialComposition) {
  // The combined scheduler routes and indexes once, then runs coloring
  // beside ordered-AAPC and the lower bound.  Its result must be exactly
  // the one-after-another composition of the stand-alone entry points:
  // coloring, ordered-AAPC, the bound, then ties to coloring.  The 8x8
  // all-to-all is the case ordered-AAPC wins.
  const topo::TorusNetwork net8(8, 8);
  const topo::TorusNetwork net12(12, 12);
  const topo::TorusNetwork net16(16, 16);
  util::Rng rng(16);
  const std::vector<std::pair<const topo::TorusNetwork*, core::RequestSet>>
      cases = {{&net8, patterns::all_to_all(64)},
               {&net12, patterns::all_to_all(144)},
               {&net16, patterns::random_pattern(256, 16000, rng)}};
  for (const auto& [net, requests] : cases) {
    const aapc::TorusAapc aapc(*net);
    const auto paths = core::route_all(*net, requests);
    const auto by_coloring = sched::coloring_paths(*net, paths);
    const auto by_aapc = sched::ordered_aapc(aapc, requests);
    const int bound = sched::multiplexing_lower_bound(*net, paths);
    const bool aapc_wins = by_aapc.degree() < by_coloring.degree();

    const auto result = sched::combined_with_winner(aapc, requests);
    EXPECT_EQ(schedule_text(*net, result.schedule),
              schedule_text(*net, aapc_wins ? by_aapc : by_coloring))
        << net->name();
    EXPECT_EQ(result.winner, aapc_wins ? sched::CombinedWinner::kOrderedAapc
                                       : sched::CombinedWinner::kColoring)
        << net->name();
    EXPECT_EQ(result.lower_bound, bound) << net->name();
  }
}

TEST(CombinedWinnerName, ToString) {
  EXPECT_EQ(sched::to_string(sched::CombinedWinner::kColoring), "coloring");
  EXPECT_EQ(sched::to_string(sched::CombinedWinner::kOrderedAapc),
            "ordered-aapc");
}

}  // namespace
