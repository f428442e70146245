#include "sched/ordered_aapc.hpp"

#include <algorithm>
#include <numeric>
#include <vector>

#include "sched/greedy.hpp"

namespace optdm::sched {

std::vector<core::Path> aapc_ordered_paths(const aapc::TorusAapc& aapc,
                                           const core::RequestSet& requests) {
  const auto phase_total = static_cast<std::size_t>(aapc.phase_count());

  // Route every request the way the AAPC schedule routes it and accumulate
  // per-phase utilization ranks (Fig. 5, lines 1-5): a phase's rank is the
  // total number of links its requests occupy.
  std::vector<core::Path> paths;
  paths.reserve(requests.size());
  std::vector<int> phase_of(requests.size());
  std::vector<std::int64_t> rank(phase_total, 0);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    paths.push_back(aapc.route(requests[i]));
    const int phase = aapc.phase_of(requests[i]);
    phase_of[i] = phase;
    rank[static_cast<std::size_t>(phase)] += paths[i].hops();
  }

  // Sort phases by descending rank (line 6); ties keep phase order for
  // determinism.
  std::vector<int> phase_order(phase_total);
  std::iota(phase_order.begin(), phase_order.end(), 0);
  std::stable_sort(phase_order.begin(), phase_order.end(),
                   [&rank](int a, int b) {
                     return rank[static_cast<std::size_t>(a)] >
                            rank[static_cast<std::size_t>(b)];
                   });
  std::vector<int> position(phase_total);
  for (std::size_t i = 0; i < phase_order.size(); ++i)
    position[static_cast<std::size_t>(phase_order[i])] = static_cast<int>(i);

  // Reorder the requests so same-phase requests are adjacent, higher-rank
  // phases first (line 7).
  std::vector<std::size_t> order(requests.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return position[static_cast<std::size_t>(phase_of[a])] <
                            position[static_cast<std::size_t>(phase_of[b])];
                   });
  std::vector<core::Path> reordered;
  reordered.reserve(paths.size());
  for (const auto i : order) reordered.push_back(std::move(paths[i]));
  return reordered;
}

core::Schedule ordered_aapc(const aapc::TorusAapc& aapc,
                            const core::RequestSet& requests) {
  // Greedy over the reordered sequence (line 8).
  return greedy_paths(aapc.network(), aapc_ordered_paths(aapc, requests));
}

core::Schedule ordered_aapc(const topo::TorusNetwork& net,
                            const core::RequestSet& requests) {
  const aapc::TorusAapc decomposition(net);
  return ordered_aapc(decomposition, requests);
}

}  // namespace optdm::sched
