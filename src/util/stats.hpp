#pragma once

#include <cstddef>
#include <span>

/// \file stats.hpp
/// Small streaming/statistics helpers used by the benchmark harness to
/// aggregate per-trial results (e.g. "average multiplexing degree over 100
/// random patterns" in Table 1 of the paper).

namespace optdm::util {

/// Streaming accumulator for mean / min / max / variance (Welford).
class Accumulator {
 public:
  void add(double x) noexcept;

  /// Number of samples added so far.
  std::size_t count() const noexcept { return n_; }
  /// Arithmetic mean; 0 when empty.
  double mean() const noexcept { return n_ == 0 ? 0.0 : mean_; }
  /// Unbiased sample variance; 0 with fewer than two samples.
  double variance() const noexcept;
  /// Sample standard deviation.
  double stddev() const noexcept;
  double min() const noexcept { return min_; }
  double max() const noexcept { return max_; }
  double sum() const noexcept { return sum_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Exact percentile (nearest-rank) of a sample; copies and sorts.
/// Nearest-rank semantics: for n samples, p maps to sorted index
/// max(ceil(p/100 * n), 1) - 1, so p=0 is the minimum, p=100 the
/// maximum, and (e.g.) p=50 of two samples is the *first* — pinned by
/// small-sample tests before anything reports a p99 through this.
double percentile(std::span<const double> sample, double p);

}  // namespace optdm::util
