#include "core/configuration.hpp"

#include <cstdint>
#include <stdexcept>

namespace optdm::core {

bool Configuration::add(const Path& path) {
  if (!accepts(path)) return false;
  for (const auto link : path.links) used_.insert(link);
  paths_.push_back(path);
  return true;
}

bool Configuration::add(Path&& path) {
  if (!accepts(path)) return false;
  for (const auto link : path.links) used_.insert(link);
  paths_.push_back(std::move(path));
  return true;
}

namespace {

/// The first conflicting pair in (i, j) lexicographic order, described.
std::optional<std::string> first_conflicting_pair(std::span<const Path> paths) {
  for (std::size_t i = 0; i < paths.size(); ++i) {
    for (std::size_t j = i + 1; j < paths.size(); ++j) {
      if (paths[i].conflicts_with(paths[j])) {
        return "configuration conflict between (" +
               std::to_string(paths[i].request.src) + "->" +
               std::to_string(paths[i].request.dst) + ") and (" +
               std::to_string(paths[j].request.src) + "->" +
               std::to_string(paths[j].request.dst) + ")";
      }
    }
  }
  return std::nullopt;
}

}  // namespace

std::optional<std::string> validate_disjoint(std::span<const Path> paths) {
  // Linear: the paths are pairwise link-disjoint iff none holds a link of
  // the running union of those before it (kept as raw bit words — this
  // runs on every service response).  Any anomaly, a collision or a path
  // over a different link count, defers to the pair scan, so the verdict,
  // the message naming the first pair in (i, j) order, and the
  // link-count-mismatch exception are exactly the pair scan's.
  if (paths.empty()) return std::nullopt;
  const int link_count = paths.front().link_count;
  std::vector<std::uint64_t> seen(
      (static_cast<std::size_t>(link_count) + 63) / 64, 0);
  for (const auto& path : paths) {
    if (path.link_count != link_count) return first_conflicting_pair(paths);
    std::uint64_t overlap = 0;
    for (const auto link : path.links) {
      if (link < 0 || link >= link_count)
        throw std::out_of_range("validate_disjoint: link outside network");
      const auto id = static_cast<std::size_t>(link);
      const std::uint64_t bit = std::uint64_t{1} << (id % 64);
      overlap |= seen[id / 64] & bit;
      seen[id / 64] |= bit;
    }
    if (overlap != 0) return first_conflicting_pair(paths);
  }
  return std::nullopt;
}

std::optional<std::string> Configuration::validate() const {
  // The union is rebuilt from the members rather than read from `used_`,
  // so the check stays independent of `add`'s bookkeeping.
  return validate_disjoint(paths_);
}

}  // namespace optdm::core
