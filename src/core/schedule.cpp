#include "core/schedule.hpp"

#include <algorithm>
#include <cstdint>
#include <stdexcept>

namespace optdm::core {

void Schedule::append(Configuration config) {
  if (config.empty())
    throw std::invalid_argument("Schedule::append: empty configuration");
  configs_.push_back(std::move(config));
}

std::size_t Schedule::connection_count() const noexcept {
  std::size_t total = 0;
  for (const auto& config : configs_) total += config.size();
  return total;
}

std::optional<int> Schedule::slot_of(Request request) const noexcept {
  for (std::size_t slot = 0; slot < configs_.size(); ++slot) {
    for (const auto& path : configs_[slot].paths()) {
      if (path.request == request) return static_cast<int>(slot);
    }
  }
  return std::nullopt;
}

std::optional<std::string> Schedule::validate_against(
    const RequestSet& pattern) const {
  // Requests packed into one word each ((src, dst) -> 64 bits is a
  // bijection), so the multiset comparison sorts plain integers.
  const auto pack = [](Request request) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(request.src))
            << 32) |
           static_cast<std::uint32_t>(request.dst);
  };
  std::vector<std::uint64_t> scheduled;
  scheduled.reserve(pattern.size());
  for (std::size_t slot = 0; slot < configs_.size(); ++slot) {
    const auto& config = configs_[slot];
    if (config.empty())
      return "slot " + std::to_string(slot) + " is empty";
    if (auto err = config.validate())
      return "slot " + std::to_string(slot) + ": " + *err;
    for (const auto& path : config.paths())
      scheduled.push_back(pack(path.request));
  }

  std::vector<std::uint64_t> expected;
  expected.reserve(pattern.size());
  for (const auto& request : pattern) expected.push_back(pack(request));
  std::sort(scheduled.begin(), scheduled.end());
  std::sort(expected.begin(), expected.end());
  if (scheduled != expected)
    return "scheduled requests do not match the pattern (scheduled " +
           std::to_string(scheduled.size()) + ", expected " +
           std::to_string(expected.size()) + ")";
  return std::nullopt;
}

}  // namespace optdm::core
