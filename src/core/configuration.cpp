#include "core/configuration.hpp"

#include <cstdint>

namespace optdm::core {

bool Configuration::add(const Path& path) {
  if (!accepts(path)) return false;
  used_.merge(path.occupancy);
  paths_.push_back(path);
  return true;
}

bool Configuration::add(Path&& path) {
  if (!accepts(path)) return false;
  used_.merge(path.occupancy);
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
  // Linear: the paths are pairwise link-disjoint iff none intersects the
  // running union of those before it (kept as raw occupancy words — this
  // runs on every service response).  Any anomaly, a collision or a path
  // over a different link universe, defers to the pair scan, so the
  // verdict, the message naming the first pair in (i, j) order, and the
  // universe-mismatch exception are exactly the pair scan's.
  if (paths.empty()) return std::nullopt;
  const int universe = paths.front().occupancy.universe_size();
  std::vector<std::uint64_t> seen(paths.front().occupancy.words().size(), 0);
  for (const auto& path : paths) {
    if (path.occupancy.universe_size() != universe)
      return first_conflicting_pair(paths);
    const auto words = path.occupancy.words();
    std::uint64_t overlap = 0;
    for (std::size_t w = 0; w < words.size(); ++w) {
      overlap |= seen[w] & words[w];
      seen[w] |= words[w];
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
