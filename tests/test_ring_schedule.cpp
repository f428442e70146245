#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "aapc/ring_schedule.hpp"
#include "util/hash.hpp"

namespace {

using optdm::aapc::RingSchedule;

TEST(RingSchedule, RejectsInvalidSizes) {
  EXPECT_THROW(RingSchedule::build(3), std::invalid_argument);
  EXPECT_THROW(RingSchedule::build(0), std::invalid_argument);
  EXPECT_THROW(RingSchedule::build(-2), std::invalid_argument);
  EXPECT_THROW(RingSchedule::build(66), std::invalid_argument);
}

TEST(RingSchedule, SizeEightIsOptimal) {
  // N^2/8 = 8 phases for the 8-ring: the bound that makes the 8x8-torus
  // product construction land on 64 = N^3/8 phases.
  const auto s = RingSchedule::build(8);
  EXPECT_EQ(s.phase_count(), 8);
}

TEST(RingSchedule, SmallSizesMeetInjectionBound) {
  EXPECT_EQ(RingSchedule::build(2).phase_count(), 2);
  EXPECT_EQ(RingSchedule::build(4).phase_count(), 4);
  EXPECT_EQ(RingSchedule::build(6).phase_count(), 6);
}

TEST(RingSchedule, ForSizeIsMemoized) {
  const auto& a = RingSchedule::for_size(8);
  const auto& b = RingSchedule::for_size(8);
  EXPECT_EQ(&a, &b);
}

TEST(RingSchedule, SelfPairsHaveZeroDirection) {
  const auto s = RingSchedule::build(8);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(s.dir_of(i, i), 0);
    EXPECT_EQ(s.arc_length(i, i), 0);
    EXPECT_GE(s.phase_of(i, i), 0);
    EXPECT_LT(s.phase_of(i, i), s.phase_count());
  }
}

TEST(RingSchedule, ShortArcsTakeShortestDirection) {
  const auto s = RingSchedule::build(8);
  for (int src = 0; src < 8; ++src) {
    for (int dst = 0; dst < 8; ++dst) {
      const int fwd = ((dst - src) % 8 + 8) % 8;
      if (fwd == 0 || fwd == 4) continue;  // self or free-direction arc
      const int expected_dir = fwd < 4 ? +1 : -1;
      EXPECT_EQ(s.dir_of(src, dst), expected_dir)
          << src << "->" << dst;
      EXPECT_EQ(s.arc_length(src, dst), std::min(fwd, 8 - fwd));
    }
  }
}

TEST(RingSchedule, HalfRingArcsBalancedAcrossDirections) {
  const auto s = RingSchedule::build(8);
  int cw = 0, ccw = 0;
  for (int src = 0; src < 8; ++src) {
    const int dir = s.dir_of(src, (src + 4) % 8);
    (dir > 0 ? cw : ccw)++;
  }
  EXPECT_EQ(cw, 4);
  EXPECT_EQ(ccw, 4);
}

/// Validates the four per-phase invariants for one ring size.
void validate_schedule(int n) {
  SCOPED_TRACE("ring size " + std::to_string(n));
  const auto s = RingSchedule::build(n);
  const int phases = s.phase_count();
  for (int p = 0; p < phases; ++p) {
    std::set<int> sources, destinations;
    std::vector<int> cw_use(static_cast<std::size_t>(n), 0);
    std::vector<int> ccw_use(static_cast<std::size_t>(n), 0);
    for (int src = 0; src < n; ++src) {
      for (int dst = 0; dst < n; ++dst) {
        if (s.phase_of(src, dst) != p) continue;
        EXPECT_TRUE(sources.insert(src).second)
            << "duplicate source " << src << " in phase " << p;
        EXPECT_TRUE(destinations.insert(dst).second)
            << "duplicate destination " << dst << " in phase " << p;
        const int dir = s.dir_of(src, dst);
        const int len = s.arc_length(src, dst);
        for (int i = 0; i < len; ++i) {
          if (dir > 0)
            ++cw_use[static_cast<std::size_t>((src + i) % n)];
          else
            ++ccw_use[static_cast<std::size_t>(((src - i - 1) % n + n) % n)];
        }
      }
    }
    for (int link = 0; link < n; ++link) {
      EXPECT_LE(cw_use[static_cast<std::size_t>(link)], 1)
          << "cw link " << link << " oversubscribed in phase " << p;
      EXPECT_LE(ccw_use[static_cast<std::size_t>(link)], 1)
          << "ccw link " << link << " oversubscribed in phase " << p;
    }
  }
  // Every ordered pair (self included) appears in exactly one phase.
  int assigned = 0;
  for (int src = 0; src < n; ++src)
    for (int dst = 0; dst < n; ++dst) {
      EXPECT_GE(s.phase_of(src, dst), 0);
      EXPECT_LT(s.phase_of(src, dst), phases);
      ++assigned;
    }
  EXPECT_EQ(assigned, n * n);
}

class RingScheduleProperty : public ::testing::TestWithParam<int> {};

TEST_P(RingScheduleProperty, PhaseInvariantsHold) {
  validate_schedule(GetParam());
}

// 32 and 64 exercise the first-fit constructive path used for the scale
// substrates; the smaller sizes run the backtracking search.
INSTANTIATE_TEST_SUITE_P(EvenSizes, RingScheduleProperty,
                         ::testing::Values(2, 4, 6, 8, 10, 12, 14, 16, 32,
                                           64));

/// FNV-1a over the "phase:dir;" text of every ordered pair, row-major.
std::uint64_t table_fingerprint(const RingSchedule& s) {
  std::string text;
  for (int src = 0; src < s.size(); ++src)
    for (int dst = 0; dst < s.size(); ++dst)
      text += std::to_string(s.phase_of(src, dst)) + ':' +
              std::to_string(s.dir_of(src, dst)) + ';';
  return optdm::util::fnv1a64(text);
}

TEST(RingSchedule, TablesArePinned) {
  // The torus AAPC decomposition, and with it every ordered-AAPC schedule,
  // is built from these tables; they must not move with the search's
  // implementation or the thread count (the search runs its candidates
  // speculatively in parallel, and the lowest-indexed success must win).
  struct Golden {
    int n;
    int phases;
    std::uint64_t fingerprint;
  };
  const Golden goldens[] = {
      {2, 2, 0x7c537a77717f9450ULL},    {4, 4, 0x9a59986a7795de5fULL},
      {6, 6, 0xfc9741fedb69c95cULL},    {8, 8, 0x1de82c4172d7ec43ULL},
      {10, 14, 0xeb47583dc13e5c7fULL},  {12, 20, 0x45848803ac3cf1a5ULL},
      {14, 27, 0xaf1f3a5822c6a13aULL},  {16, 35, 0x0f1a02907c1e6573ULL},
      {18, 44, 0x6792a944ddd4219bULL},  {32, 132, 0x69ea20fbdb7d70b1ULL},
      {64, 520, 0xaef6e88e27e2958bULL},
  };
  for (const auto& golden : goldens) {
    SCOPED_TRACE("ring size " + std::to_string(golden.n));
    const auto s = RingSchedule::build(golden.n);
    EXPECT_EQ(s.phase_count(), golden.phases);
    EXPECT_EQ(table_fingerprint(s), golden.fingerprint);
  }
}

TEST(RingSchedule, SizeEightSaturatesEveryLinkEveryPhase) {
  // At the optimum every directed link is busy in every phase.
  const int n = 8;
  const auto s = RingSchedule::build(n);
  for (int p = 0; p < s.phase_count(); ++p) {
    int cw_total = 0, ccw_total = 0;
    for (int src = 0; src < n; ++src)
      for (int dst = 0; dst < n; ++dst) {
        if (s.phase_of(src, dst) != p) continue;
        if (s.dir_of(src, dst) > 0) cw_total += s.arc_length(src, dst);
        if (s.dir_of(src, dst) < 0) ccw_total += s.arc_length(src, dst);
      }
    EXPECT_EQ(cw_total, n) << "phase " << p;
    EXPECT_EQ(ccw_total, n) << "phase " << p;
  }
}

}  // namespace
