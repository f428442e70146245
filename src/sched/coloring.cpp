#include "sched/coloring.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <utility>
#include <vector>

namespace optdm::sched {

namespace {

double priority_value(ColoringPriority rule, int length, int dynamic_degree,
                      int static_degree) {
  const int degree =
      rule == ColoringPriority::kStaticLengthOverDegree ? static_degree
                                                        : dynamic_degree;
  switch (rule) {
    case ColoringPriority::kDegreeTimesLength:
      return static_cast<double>(degree) * static_cast<double>(length);
    case ColoringPriority::kDegreeOnly:
      return static_cast<double>(degree);
    case ColoringPriority::kLengthOnly:
      return static_cast<double>(length);
    case ColoringPriority::kInverseDegree:
      return degree == 0 ? std::numeric_limits<double>::infinity()
                         : 1.0 / static_cast<double>(degree);
    case ColoringPriority::kLengthOverDegree:
    case ColoringPriority::kStaticLengthOverDegree:
      return degree == 0 ? std::numeric_limits<double>::infinity()
                         : static_cast<double>(length) /
                               static_cast<double>(degree);
  }
  return 0.0;
}

/// One vertex of a pass's order, keyed by `descending_key` of its priority.
struct PassEntry {
  std::uint64_t key;
  std::int32_t vertex;
};

/// A 64-bit key whose ascending order is the descending order of
/// `priority`.  Every rule's priority is non-negative (possibly +inf), and
/// the IEEE-754 bit patterns of non-negative doubles order like their
/// values.
std::uint64_t descending_key(double priority) {
  return ~std::bit_cast<std::uint64_t>(priority);
}

/// Stable LSD radix sort of `entries` by key, one byte per digit.  Digits
/// on which every key agrees are skipped: the priorities take few distinct
/// values, so most of the eight digits are constant.  `scratch` is reused
/// storage.
void radix_sort(std::vector<PassEntry>& entries,
                std::vector<PassEntry>& scratch) {
  std::uint64_t any_set = 0;
  std::uint64_t all_set = ~std::uint64_t{0};
  for (const auto& entry : entries) {
    any_set |= entry.key;
    all_set &= entry.key;
  }
  const std::uint64_t varying = any_set ^ all_set;
  scratch.resize(entries.size());
  for (int shift = 0; shift < 64; shift += 8) {
    if (((varying >> shift) & 0xff) == 0) continue;
    std::array<std::size_t, 256> count{};
    for (const auto& entry : entries) ++count[(entry.key >> shift) & 0xff];
    std::size_t offset = 0;
    for (auto& c : count) offset += std::exchange(c, offset);
    for (const auto& entry : entries)
      scratch[count[(entry.key >> shift) & 0xff]++] = entry;
    entries.swap(scratch);
  }
}

}  // namespace

ConflictIndex ConflictIndex::build(std::span<const core::Path> paths,
                                   obs::SchedCounters* counters) {
  obs::PhaseTimer timer(paths.empty() ? nullptr : counters,
                        &obs::SchedCounters::graph_build_ns);
  core::LinkOccupancy occupancy(paths);
  auto degrees = occupancy.conflict_degrees();
  return ConflictIndex{std::move(occupancy), std::move(degrees)};
}

core::Schedule coloring_paths(const topo::Network& net,
                              std::span<const core::Path> paths,
                              ColoringPriority rule,
                              obs::SchedCounters* counters) {
  return coloring_paths(net, paths, ConflictIndex::build(paths, counters),
                        rule, counters);
}

core::Schedule coloring_paths(const topo::Network& net,
                              std::span<const core::Path> paths,
                              const ConflictIndex& index,
                              ColoringPriority rule,
                              obs::SchedCounters* counters) {
  const auto& degrees = index.degrees;
  const auto n = static_cast<std::int32_t>(paths.size());
  core::Schedule schedule;
  if (counters) {
    counters->conflict_vertices = n;
    counters->conflict_edges =
        std::accumulate(degrees.begin(), degrees.end(), std::int64_t{0}) / 2;
  }
  if (n == 0) {
    if (counters) {
      counters->coloring_passes = 0;
      counters->coloring_degree = 0;
    }
    return schedule;
  }

  // Per-vertex scheduling state, packed so the neighbor-update loop (the
  // hottest loop of the whole compiler) touches one cache line per vertex.
  // `uncolored_degree` is the degree within the still-uncolored subgraph,
  // decremented whenever a neighbor is colored — the paper's priority
  // update (Fig. 4, lines 13-16).  `excluded_in_pass` is the per-pass
  // WORK-set exclusion flag: vertices adjacent to something colored in the
  // current pass cannot join its configuration.
  struct VertexState {
    int uncolored_degree = 0;
    std::int32_t excluded_in_pass = -1;
  };
  std::vector<VertexState> state(static_cast<std::size_t>(n));
  std::vector<int> lengths(static_cast<std::size_t>(n));
  for (std::size_t v = 0; v < paths.size(); ++v) {
    state[v].uncolored_degree = degrees[v];
    lengths[v] = paths[v].hops();
  }
  std::vector<std::uint8_t> colored(static_cast<std::size_t>(n), 0);
  std::vector<std::int32_t> stamp(static_cast<std::size_t>(n), -1);
  // The index restricted to the uncolored vertices: each vertex is erased
  // from it as it is colored, so neighbor walks skip the colored part of
  // the pattern and every neighbor they visit is uncolored.
  core::LinkOccupancy uncolored_occupancy = index.occupancy;

  // Still-uncolored vertices, ascending; compacted after every pass.
  std::vector<std::int32_t> uncolored(static_cast<std::size_t>(n));
  std::iota(uncolored.begin(), uncolored.end(), 0);
  std::vector<PassEntry> order;
  std::vector<PassEntry> scratch;
  order.reserve(uncolored.size());
  std::int32_t pass = 0;

  // Each pass visits the uncolored vertices in descending priority, ties
  // toward the lower index, and colors every one still eligible.  This
  // picks exactly what a highest-priority scan per selection picks: a
  // vertex's priority changes mid-pass only when a neighbor is colored,
  // and that same event takes it out of the pass's WORK set, so the
  // priorities of eligible vertices are fixed within a pass.
  obs::PhaseTimer color_timer(counters, &obs::SchedCounters::coloring_ns);
  while (!uncolored.empty()) {
    order.clear();
    for (const auto v : uncolored) {
      const auto vi = static_cast<std::size_t>(v);
      order.push_back({descending_key(priority_value(
                           rule, lengths[vi], state[vi].uncolored_degree,
                           degrees[vi])),
                       v});
    }
    radix_sort(order, scratch);

    core::Configuration config(net.link_count());
    // Uncolored vertices neither colored nor excluded in this pass; the
    // pass ends as soon as none is left.
    auto eligible = order.size();
    for (const auto& entry : order) {
      if (eligible == 0) break;
      const auto best = entry.vertex;
      if (state[static_cast<std::size_t>(best)].excluded_in_pass == pass)
        continue;

      colored[static_cast<std::size_t>(best)] = 1;
      --eligible;
      // The WORK-set discipline guarantees no conflict with the members
      // already chosen this pass.
      if (!config.add(paths[static_cast<std::size_t>(best)]))
        throw std::logic_error(
            "coloring: WORK-set invariant violated (conflicting vertex "
            "selected)");
      // No neighbor was colored in this pass (it would have excluded
      // `best`), so an uncolored neighbor is eligible iff not yet excluded.
      // The walk visits a neighbor once per shared link; only the first
      // visit lowers its degree, and the exclusion is idempotent.
      uncolored_occupancy.erase(
          best, stamp, [&](std::int32_t neighbor, bool first) {
            auto& ns = state[static_cast<std::size_t>(neighbor)];
            ns.uncolored_degree -= first;  // priority update
            eligible -= ns.excluded_in_pass != pass;
            ns.excluded_in_pass = pass;  // WORK = WORK - n_i
          });
    }
    std::erase_if(uncolored, [&](std::int32_t v) {
      return colored[static_cast<std::size_t>(v)] != 0;
    });
    schedule.append(std::move(config));
    ++pass;
  }
  if (counters) {
    counters->coloring_passes = pass;
    counters->coloring_degree = schedule.degree();
  }
  return schedule;
}

core::Schedule coloring(const topo::Network& net,
                        const core::RequestSet& requests,
                        ColoringPriority rule, obs::SchedCounters* counters) {
  std::vector<core::Path> paths;
  {
    obs::PhaseTimer timer(counters, &obs::SchedCounters::route_ns);
    paths = core::route_all(net, requests);
  }
  return coloring_paths(net, paths, rule, counters);
}

}  // namespace optdm::sched
