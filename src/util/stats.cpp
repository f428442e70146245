#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

namespace optdm::util {

void Accumulator::add(double x) noexcept {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double Accumulator::variance() const noexcept {
  return n_ < 2 ? 0.0 : m2_ / static_cast<double>(n_ - 1);
}

double Accumulator::stddev() const noexcept { return std::sqrt(variance()); }

double percentile(std::span<const double> sample, double p) {
  if (sample.empty()) return 0.0;
  std::vector<double> sorted(sample.begin(), sample.end());
  std::sort(sorted.begin(), sorted.end());
  const double clamped = std::clamp(p, 0.0, 100.0);
  const auto rank = static_cast<std::size_t>(
      std::ceil(clamped / 100.0 * static_cast<double>(sorted.size())));
  const std::size_t index = rank == 0 ? 0 : rank - 1;
  return sorted[std::min(index, sorted.size() - 1)];
}

}  // namespace optdm::util
