#include "sched/combined.hpp"

#include "sched/bounds.hpp"
#include "sched/coloring.hpp"
#include "sched/ordered_aapc.hpp"
#include "util/parallel.hpp"

namespace optdm::sched {

CombinedResult combined_with_winner(const aapc::TorusAapc& aapc,
                                    const core::RequestSet& requests,
                                    obs::SchedCounters* counters) {
  // Route and index before the fork: a region nested in a
  // `parallel_invoke` branch runs serially, so here the index's degree
  // pass gets the whole pool.  The winner rule runs after the barrier, so
  // the result does not depend on which branch finishes first.  Each
  // branch measures into its own counters, merged after the barrier.
  obs::SchedCounters coloring_counters;
  obs::SchedCounters aapc_counters;
  auto* measured = counters ? &coloring_counters : nullptr;
  std::vector<core::Path> paths;
  {
    obs::PhaseTimer timer(measured, &obs::SchedCounters::route_ns);
    paths = core::route_all(aapc.network(), requests);
  }
  const auto index = ConflictIndex::build(paths, measured);
  core::Schedule by_coloring;
  core::Schedule by_aapc;
  int lower_bound = 0;
  util::parallel_invoke(
      [&] {
        by_coloring = coloring_paths(aapc.network(), paths, index,
                                     ColoringPriority::kDegreeTimesLength,
                                     measured);
      },
      [&] {
        {
          obs::PhaseTimer timer(counters ? &aapc_counters : nullptr,
                                &obs::SchedCounters::aapc_ns);
          by_aapc = ordered_aapc(aapc, requests);
        }
        lower_bound =
            multiplexing_lower_bound(paths, index.occupancy, index.degrees);
      });
  if (counters) {
    *counters = coloring_counters;
    counters->aapc_ns = aapc_counters.aapc_ns;
    counters->aapc_degree = by_aapc.degree();
  }
  if (by_aapc.degree() < by_coloring.degree()) {
    if (counters) counters->combined_winner = to_string(CombinedWinner::kOrderedAapc);
    return CombinedResult{std::move(by_aapc), CombinedWinner::kOrderedAapc,
                          lower_bound};
  }
  if (counters) counters->combined_winner = to_string(CombinedWinner::kColoring);
  return CombinedResult{std::move(by_coloring), CombinedWinner::kColoring,
                        lower_bound};
}

core::Schedule combined(const aapc::TorusAapc& aapc,
                        const core::RequestSet& requests) {
  return combined_with_winner(aapc, requests).schedule;
}

core::Schedule combined(const topo::TorusNetwork& net,
                        const core::RequestSet& requests) {
  const aapc::TorusAapc decomposition(net);
  return combined(decomposition, requests);
}

std::string to_string(CombinedWinner winner) {
  return winner == CombinedWinner::kColoring ? "coloring" : "ordered-aapc";
}

}  // namespace optdm::sched
