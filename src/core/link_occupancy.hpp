#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/path.hpp"

/// \file link_occupancy.hpp
/// The link→paths occupancy index of a routed pattern: for every directed
/// link, the ascending list of the paths that occupy it.  Two paths
/// conflict iff they co-occupy a link, so a path's conflict neighbours are
/// the union of its links' occupant lists.  The index is O(Σ path lengths)
/// memory where the conflict graph is O(n²); the coloring heuristic and the
/// lower bounds work from it directly, and `ConflictGraph` builds its rows
/// from it.

namespace optdm::core {

/// Occupancy index over a fixed path list.  It views `paths`, which must
/// outlive it.  Paths can be erased from it (the coloring erases each path
/// it colors from its own copy); nothing else changes it.
class LinkOccupancy {
 public:
  /// Counting-sorts the paths' link lists into per-link occupant lists.
  /// Throws `std::invalid_argument` if the paths span different networks.
  explicit LinkOccupancy(std::span<const Path> paths);

  /// Ascending indices of the paths occupying `link`.
  std::span<const std::int32_t> occupants(topo::LinkId link) const {
    const auto l = static_cast<std::size_t>(link);
    return {occupants_.data() + offsets_[l], sizes_[l]};
  }

  /// Length of the longest occupant list: the load of the busiest link.
  int max_occupancy() const noexcept;

  /// Conflict degree of every path: the number of distinct other paths it
  /// shares a link with, i.e. its degree in the conflict graph.  Computed
  /// in parallel chunks, each deduplicating through its own stamp array;
  /// the result does not depend on the thread count.
  std::vector<int> conflict_degrees() const;

  /// Calls `visit(u)` once for every distinct path `u != v` that shares a
  /// link with path `v`, in no particular order.  `stamp` is caller-owned
  /// scratch with one entry per path, initialised to -1: the call marks
  /// each visited `u` with `stamp[u] = v`, so one array serves any
  /// sequence of calls for distinct `v` without being cleared.
  template <typename Visit>
  void for_each_neighbor(std::int32_t v, std::span<std::int32_t> stamp,
                         Visit&& visit) const {
    stamp[static_cast<std::size_t>(v)] = v;
    for (const auto link : paths_[static_cast<std::size_t>(v)].links) {
      for (const auto u : occupants(link)) {
        // The mark is stored unconditionally so the dedupe needs no branch
        // around the store (a quarter off the degree pass).
        auto& mark = stamp[static_cast<std::size_t>(u)];
        const bool first = mark != v;
        mark = v;
        if (first) visit(u);
      }
    }
  }

  /// Erases path `v` from the index, compacting its links' occupant lists
  /// in place (they stay ascending) as it walks them, so later walks no
  /// longer see it.  Calls `visit(u, first)` for every entry `u != v` of
  /// those lists: once per shared link, with `first` true exactly on the
  /// first entry of each distinct neighbour (deduplicated through `stamp`
  /// as in `for_each_neighbor`).  Passing the flag instead of skipping
  /// repeats lets the caller's update run without a branch on it.
  template <typename Visit>
  void erase(std::int32_t v, std::span<std::int32_t> stamp, Visit&& visit) {
    stamp[static_cast<std::size_t>(v)] = v;
    for (const auto link : paths_[static_cast<std::size_t>(v)].links) {
      const auto l = static_cast<std::size_t>(link);
      std::int32_t* const begin = occupants_.data() + offsets_[l];
      std::int32_t* kept = begin;
      for (const auto u : std::span(begin, sizes_[l])) {
        *kept = u;
        if (u == v) continue;
        ++kept;
        auto& mark = stamp[static_cast<std::size_t>(u)];
        const bool first = mark != v;
        mark = v;
        visit(u, first);
      }
      sizes_[l] = static_cast<std::size_t>(kept - begin);
    }
  }

 private:
  std::span<const Path> paths_;
  /// Per-link lists: occupants_[offsets_[l], offsets_[l] + sizes_[l])
  /// occupy link l; erasing shrinks sizes_[l].
  std::vector<std::size_t> offsets_;
  std::vector<std::size_t> sizes_;
  std::vector<std::int32_t> occupants_;
};

}  // namespace optdm::core
