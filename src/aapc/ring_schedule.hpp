#pragma once

#include <cstdint>
#include <vector>

/// \file ring_schedule.hpp
/// Phased all-to-all personalized communication (AAPC) on a ring.
///
/// This is the building block of the torus AAPC configuration set the
/// paper's ordered-AAPC algorithm relies on (Section 3.3, citing Hinrichs
/// et al. [8]).  For an even-size ring of N nodes we partition all N^2
/// ordered (src, dst) pairs — self pairs included as zero-length
/// placeholders — into `max(N, N^2/8)` *phases* such that within each
/// phase:
///
///   1. all sources are distinct           (injection-port feasibility),
///   2. all destinations are distinct      (ejection-port feasibility),
///   3. arcs routed clockwise  are link-disjoint,
///   4. arcs routed counter-clockwise are link-disjoint.
///
/// Arcs shorter than N/2 take the shortest direction; arcs of exactly N/2
/// are split half-and-half between the two directions so both directed
/// rings carry the same load.  For N = 8 this yields 8 phases with *every*
/// directed link busy in every phase — the information-theoretic optimum —
/// which is what makes the 8x8-torus product construction land on exactly
/// N^3/8 = 64 phases (see torus_aapc.hpp).
///
/// The schedule is found once per ring size, then cached: sizes up to 16
/// run a deterministic backtracking search with symmetry breaking (tight
/// phase counts — exactly optimal at N = 8), larger sizes (the 32x32 and
/// 64x64 scale substrates) a deterministic first-fit construction that
/// always succeeds at a small constant factor above the link lower bound.
/// The search's budgeted candidates (phase count x pair order) run
/// speculatively across the thread pool; the lowest-indexed success wins,
/// so the table does not depend on the thread count.

namespace optdm::aapc {

/// Phase/direction assignment for one ordered pair.
struct RingAssignment {
  std::int32_t phase = -1;
  /// +1 = clockwise (increasing node index), -1 = counter-clockwise,
  /// 0 = self pair (no links used).
  std::int32_t dir = 0;
};

/// A complete phased-AAPC schedule for one ring size.
class RingSchedule {
 public:
  /// Computes a schedule for an even ring size `n >= 2`.  Throws
  /// `std::invalid_argument` for odd or non-positive sizes and
  /// `std::runtime_error` if no schedule is found within the search budget
  /// (does not happen for the sizes exercised in this repository; see the
  /// property tests).
  static RingSchedule build(int n);

  /// Memoized `build`; the returned reference lives for the program.
  /// Thread-safe: a mutex makes the first call per size a single-flight
  /// build, which other callers of any size wait for.
  static const RingSchedule& for_size(int n);

  int size() const noexcept { return n_; }
  int phase_count() const noexcept { return phase_count_; }

  /// Phase of ordered pair (src, dst); self pairs have phases too (they
  /// consume the src/dst slot of their phase, which is what guarantees the
  /// torus product construction's injection/ejection feasibility).
  int phase_of(int src, int dst) const;

  /// Direction of (src, dst): +1, -1, or 0 for self pairs.
  int dir_of(int src, int dst) const;

  /// Number of ring links the pair traverses in its assigned direction.
  int arc_length(int src, int dst) const;

 private:
  RingSchedule(int n, int phase_count, std::vector<RingAssignment> table);

  std::size_t index(int src, int dst) const;

  int n_ = 0;
  int phase_count_ = 0;
  /// Row-major [src][dst].
  std::vector<RingAssignment> table_;
};

}  // namespace optdm::aapc
