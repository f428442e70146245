#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "topo/ids.hpp"

/// \file linkset.hpp
/// Dense bitset over directed link ids.  Conflict detection between paths
/// and within configurations is the inner loop of every scheduling
/// algorithm, so it is implemented as word-parallel bit operations.

namespace optdm::core {

/// Fixed-universe bitset keyed by `topo::LinkId`.
class LinkSet {
 public:
  LinkSet() = default;
  /// Creates an empty set over a universe of `link_count` links.
  explicit LinkSet(int link_count);

  /// Element access is uniformly strict: `insert`, `erase`, and
  /// `contains` all throw `std::out_of_range` for a link id outside the
  /// universe.  An out-of-universe id can only come from mixing networks
  /// (or arithmetic gone wrong), so every access path reports it instead
  /// of `contains` silently answering "not a member".
  void insert(topo::LinkId link);
  void erase(topo::LinkId link);
  bool contains(topo::LinkId link) const;

  /// True if no link is set.
  bool empty() const noexcept { return size_ == 0; }

  /// Number of links in the set.  O(1): the cardinality is maintained
  /// incrementally by the mutators (word-delta popcounts), so schedulers
  /// polling set sizes in inner loops no longer rescan the words.
  int size() const noexcept { return size_; }

  /// True if `*this` and `other` share at least one link.  Throws
  /// `std::invalid_argument` if the universes differ (paths from different
  /// networks are never comparable).
  bool intersects(const LinkSet& other) const;

  /// Adds every link of `other` into this set.  Throws on universe
  /// mismatch.
  void merge(const LinkSet& other);

  /// Removes every link of `other` from this set.  Throws on universe
  /// mismatch.
  void subtract(const LinkSet& other);

  void clear() noexcept;

  int universe_size() const noexcept { return universe_; }

  /// Read-only view of the 64-bit occupancy words (bit i of word w is
  /// link 64*w + i).  Exposed so word-level engines and tests can consume
  /// the representation directly.
  std::span<const std::uint64_t> words() const noexcept { return words_; }

 private:
  void require_same_universe(const LinkSet& other, const char* op) const;

  int universe_ = 0;
  int size_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace optdm::core
