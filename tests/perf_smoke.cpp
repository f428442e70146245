// Perf smoke gate: compiles a 4k-connection random pattern on the 8x8
// torus end-to-end (routing, the link-occupancy conflict index, coloring,
// greedy) and fails if it blows a generous wall-clock budget.  The edge
// count it prints is half the sum of the index's conflict degrees, as the
// coloring reports it.  Registered under the `perf` ctest configuration
// (excluded from default ctest runs):
//
//     ctest -C perf -L perf --output-on-failure
//
// The budget is ~20x the expected time on a modest core, so it only trips
// on genuine complexity regressions (e.g. an accidental return to an
// all-pairs conflict test), not machine noise.

#include <chrono>
#include <cstdlib>
#include <iostream>
#include <numeric>

#include "patterns/random.hpp"
#include "sched/coloring.hpp"
#include "sched/greedy.hpp"
#include "topo/torus.hpp"
#include "util/rng.hpp"

int main(int argc, char** argv) {
  using namespace optdm;
  using Clock = std::chrono::steady_clock;

  // Budget in milliseconds; override with perf_smoke <ms>.
  long budget_ms = 3000;
  if (argc > 1) budget_ms = std::atol(argv[1]);

  topo::TorusNetwork net(8, 8);
  util::Rng rng(4242);
  const auto requests = patterns::random_pattern(64, 4000, rng);

  const auto start = Clock::now();
  const auto paths = core::route_all(net, requests);
  const auto index = sched::ConflictIndex::build(paths);
  const auto by_coloring = sched::coloring_paths(
      net, paths, index, sched::ColoringPriority::kDegreeTimesLength);
  const auto by_greedy = sched::greedy_paths(net, paths);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           Clock::now() - start)
                           .count();
  const auto conflict_edges =
      std::accumulate(index.degrees.begin(), index.degrees.end(),
                      std::int64_t{0}) /
      2;

  std::cout << "perf_smoke: 4000 connections compiled in " << elapsed
            << " ms (budget " << budget_ms << " ms); conflict edges "
            << conflict_edges << ", coloring degree "
            << by_coloring.degree() << ", greedy degree "
            << by_greedy.degree() << "\n";

  if (by_coloring.validate_against(requests) ||
      by_greedy.validate_against(requests)) {
    std::cerr << "perf_smoke: FAILED — invalid schedule produced\n";
    return 1;
  }
  if (elapsed > budget_ms) {
    std::cerr << "perf_smoke: FAILED — compilation exceeded the "
              << budget_ms << " ms budget\n";
    return 1;
  }
  return 0;
}
