#pragma once

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/path.hpp"

/// \file configuration.hpp
/// A configuration is a set of connections that can be established
/// simultaneously — i.e. a valid state of all the network's crossbar
/// switches (paper, Section 2).  A TDM schedule is an ordered list of
/// configurations the network cycles through, one per time slot.

namespace optdm::core {

/// Checks that `paths` are pairwise link-disjoint, in time linear in their
/// count.  Returns a description of the first conflicting pair in (i, j)
/// order, or nullopt.  Throws `std::invalid_argument` when the paths come
/// from networks with different link counts.
std::optional<std::string> validate_disjoint(std::span<const Path> paths);

/// A conflict-free set of established paths.
///
/// The class keeps one bitset, `used_`, the union of all member links, so
/// a membership test is one bit probe per link of the candidate path.
/// `add` refuses conflicting paths, keeping the invariant "no two member
/// paths share a directed link" true by construction; `validate` re-checks
/// it from scratch (every service response runs it).
class Configuration {
 public:
  Configuration() = default;
  explicit Configuration(int link_count) : used_(link_count) {}

  /// True if `path` could be added without conflict.  Throws
  /// `std::invalid_argument` if `path` belongs to a network with a
  /// different link count.
  bool accepts(const Path& path) const { return !intersects(used_, path); }

  /// Adds a path; returns false (and leaves the configuration unchanged)
  /// if it conflicts with a member.  The conflict test runs first, so a
  /// rejected path is never copied.
  bool add(const Path& path);
  bool add(Path&& path);

  const std::vector<Path>& paths() const noexcept { return paths_; }
  std::size_t size() const noexcept { return paths_.size(); }
  bool empty() const noexcept { return paths_.empty(); }

  /// Union of all member links.
  const LinkSet& used_links() const noexcept { return used_; }

  /// Re-validation independent of the incremental bookkeeping, linear in
  /// the member count; returns a description of the first conflicting
  /// pair in (i, j) order.
  std::optional<std::string> validate() const;

 private:
  std::vector<Path> paths_;
  LinkSet used_;
};

}  // namespace optdm::core
