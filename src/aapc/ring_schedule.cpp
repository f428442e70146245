#include "aapc/ring_schedule.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>

#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace optdm::aapc {

namespace {

/// One ordered pair awaiting assignment during the search.
struct PendingPair {
  std::int32_t src = 0;
  std::int32_t dst = 0;
  /// Shortest hop distance (<= n/2).
  std::int32_t length = 0;
  /// Candidate directions: {0} for self, one entry for short arcs, two for
  /// half-ring arcs.
  std::int32_t dirs[2] = {0, 0};
  std::int32_t dir_count = 1;
};

/// Per-phase occupancy masks over <= 64 nodes/links (first-fit path).
struct PhaseState {
  std::uint64_t src_used = 0;
  std::uint64_t dst_used = 0;
  /// Bit i = clockwise link i -> i+1 (mod n).
  std::uint64_t cw_links = 0;
  /// Bit i = counter-clockwise link i+1 -> i (mod n).
  std::uint64_t ccw_links = 0;
};

/// Mask of the `len` clockwise links an arc starting at `src` uses.
std::uint64_t cw_mask(int src, int len, int n) {
  std::uint64_t mask = 0;
  for (int i = 0; i < len; ++i)
    mask |= std::uint64_t{1} << static_cast<unsigned>((src + i) % n);
  return mask;
}

/// Mask of the `len` counter-clockwise links an arc starting at `src`
/// uses; ccw link j is the fiber (j+1) -> j, so an arc src -> src-len
/// covers links src-1, ..., src-len.
std::uint64_t ccw_mask(int src, int len, int n) {
  std::uint64_t mask = 0;
  for (int i = 1; i <= len; ++i)
    mask |= std::uint64_t{1} << static_cast<unsigned>(((src - i) % n + n) % n);
  return mask;
}

/// Phase counts the backtracking search can try fit one bit per phase in a
/// `uint64_t`: it runs only for n <= 16, where the lower bound is at most
/// 32 and the search gives up at the lower bound + 4.
constexpr int kMaxSearchPhases = 64;

/// Every this many DFS nodes (mask of the low budget bits) a candidate
/// checks whether a lower-indexed candidate has already won.
constexpr std::int64_t kAbortCheckMask = 4095;

/// Backtracking search for one (phase count, pair order) candidate.
///
/// Occupancy is kept per port and per link as a mask over phases, so a
/// node's feasible phases are one AND-NOT over the pair's ports and arc
/// links.  Walking them in ascending order visits exactly the phases an
/// index scan over phases 0..limit with per-phase occupancy would, in the
/// same order, so the node count — and with it the budget's meaning — does
/// not depend on the representation.
class Search {
 public:
  /// `winner` is the lowest candidate index known to have succeeded; the
  /// search gives up early once it drops below `self_index`.
  Search(int n, int phase_count, const std::vector<PendingPair>& pairs,
         const std::atomic<std::size_t>& winner, std::size_t self_index)
      : n_(n),
        phase_count_(phase_count),
        pairs_(pairs),
        half_budget_(n / 2),
        winner_(winner),
        self_index_(self_index) {
    if (phase_count_ > kMaxSearchPhases)
      throw std::logic_error("RingSchedule: search phase count exceeds 64");
    arcs_.reserve(pairs_.size());
    for (const auto& p : pairs_) {
      std::array<std::uint64_t, 2> arc{0, 0};
      for (int d = 0; d < p.dir_count; ++d)
        arc[static_cast<std::size_t>(d)] =
            p.dirs[d] > 0   ? cw_mask(p.src, p.length, n)
            : p.dirs[d] < 0 ? ccw_mask(p.src, p.length, n)
                            : 0;
      arcs_.push_back(arc);
    }
  }

  /// Runs the DFS; fills `out` (row-major n*n) and returns true on success.
  bool run(std::vector<RingAssignment>& out, std::int64_t node_budget) {
    budget_ = node_budget;
    assignment_.assign(pairs_.size(), RingAssignment{});
    if (!dfs(0)) return false;
    for (std::size_t i = 0; i < pairs_.size(); ++i) {
      const auto& p = pairs_[i];
      out[static_cast<std::size_t>(p.src) * static_cast<std::size_t>(n_) +
          static_cast<std::size_t>(p.dst)] = assignment_[i];
    }
    return true;
  }

 private:
  bool dfs(std::size_t index) {
    if (index == pairs_.size()) return true;
    if (--budget_ <= 0) return false;
    if ((budget_ & kAbortCheckMask) == 0 &&
        winner_.load(std::memory_order_relaxed) < self_index_) {
      budget_ = 0;  // unwinds like an exhausted budget
      return false;
    }

    const auto& pair = pairs_[index];
    // Symmetry breaking: phases are interchangeable until first touched, so
    // never open more than one fresh phase.
    const int phase_limit =
        std::min(phase_count_ - 1, max_phase_touched_ + 1);
    const std::uint64_t open =
        ~std::uint64_t{0} >> static_cast<unsigned>(63 - phase_limit);
    const std::uint64_t ports_free =
        open & ~src_busy_[static_cast<std::size_t>(pair.src)] &
        ~dst_busy_[static_cast<std::size_t>(pair.dst)];
    const bool half_ring = pair.length * 2 == n_;

    for (int d = 0; d < pair.dir_count; ++d) {
      const std::int32_t dir = pair.dirs[d];
      // Keep half-ring arcs balanced across directions: exactly n/2 each
      // way saturates both directed rings (necessary when the phase count
      // equals the link lower bound).
      if (half_ring) {
        if (dir > 0 && cw_half_used_ == half_budget_) continue;
        if (dir < 0 && ccw_half_used_ == half_budget_) continue;
      }
      const std::uint64_t arc = arcs_[index][static_cast<std::size_t>(d)];
      auto& links = dir > 0 ? cw_busy_ : ccw_busy_;
      std::uint64_t feasible = ports_free;
      for (std::uint64_t m = arc; m != 0; m &= m - 1)
        feasible &= ~links[static_cast<std::size_t>(std::countr_zero(m))];

      // Candidate phases in visiting order.  Self pairs are link-free and
      // would otherwise all first-fit into the earliest phases; visit
      // them emptiest-of-selfs first so they spread out.  Insertion-
      // sorting only the feasible phases is stable, and filtering commutes
      // with a stable sort, so this is the order a stable sort of every
      // phase by self count followed by a feasibility filter gives.
      std::array<int, kMaxSearchPhases> order;
      int count = 0;
      if (pair.length != 0) {
        for (; feasible != 0; feasible &= feasible - 1)
          order[static_cast<std::size_t>(count++)] = std::countr_zero(feasible);
      } else {
        for (; feasible != 0; feasible &= feasible - 1) {
          const int phase = std::countr_zero(feasible);
          const int self = self_count_[static_cast<std::size_t>(phase)];
          int j = count++;
          for (; j > 0 && self_count_[static_cast<std::size_t>(
                              order[static_cast<std::size_t>(j - 1)])] > self;
               --j)
            order[static_cast<std::size_t>(j)] =
                order[static_cast<std::size_t>(j - 1)];
          order[static_cast<std::size_t>(j)] = phase;
        }
      }
      for (int i = 0; i < count; ++i) {
        if (place(index, dir, arc, links, order[static_cast<std::size_t>(i)]))
          return true;
        if (budget_ <= 0) return false;
      }
    }
    return false;
  }

  /// Assigns pair `index` to `phase` in direction `dir`, recurses, and
  /// undoes the assignment if the subtree fails.
  bool place(std::size_t index, std::int32_t dir, std::uint64_t arc,
             std::array<std::uint64_t, 64>& links, int phase) {
    const auto& pair = pairs_[index];
    const std::uint64_t bit = std::uint64_t{1} << static_cast<unsigned>(phase);
    auto& src_busy = src_busy_[static_cast<std::size_t>(pair.src)];
    auto& dst_busy = dst_busy_[static_cast<std::size_t>(pair.dst)];
    const bool half_ring = pair.length * 2 == n_;
    src_busy |= bit;
    dst_busy |= bit;
    for (std::uint64_t m = arc; m != 0; m &= m - 1)
      links[static_cast<std::size_t>(std::countr_zero(m))] |= bit;
    if (pair.length == 0) ++self_count_[static_cast<std::size_t>(phase)];
    if (half_ring) (dir > 0 ? cw_half_used_ : ccw_half_used_)++;
    const int saved_max = max_phase_touched_;
    max_phase_touched_ = std::max(max_phase_touched_, phase);
    assignment_[index] = RingAssignment{phase, dir};

    if (dfs(index + 1)) return true;

    max_phase_touched_ = saved_max;
    if (half_ring) (dir > 0 ? cw_half_used_ : ccw_half_used_)--;
    if (pair.length == 0) --self_count_[static_cast<std::size_t>(phase)];
    for (std::uint64_t m = arc; m != 0; m &= m - 1)
      links[static_cast<std::size_t>(std::countr_zero(m))] &= ~bit;
    src_busy &= ~bit;
    dst_busy &= ~bit;
    return false;
  }

  int n_;
  int phase_count_;
  const std::vector<PendingPair>& pairs_;
  /// Per pair, the link mask of the arc in each candidate direction.
  std::vector<std::array<std::uint64_t, 2>> arcs_;
  /// Bit p of src_busy_[v] / dst_busy_[v]: node v already sends / receives
  /// in phase p.  Bit p of cw_busy_[i] / ccw_busy_[i]: clockwise link
  /// i -> i+1 / counter-clockwise link i+1 -> i is taken in phase p.
  std::array<std::uint64_t, 64> src_busy_{};
  std::array<std::uint64_t, 64> dst_busy_{};
  std::array<std::uint64_t, 64> cw_busy_{};
  std::array<std::uint64_t, 64> ccw_busy_{};
  /// Self-pair placeholders per phase.  The search steers placeholders
  /// toward phases with fewer of them so phases stay nearly full (the
  /// torus product inherits this balance: 63 real connections per phase at
  /// n = 8), but this is a preference, not a constraint.
  std::array<std::int32_t, kMaxSearchPhases> self_count_{};
  std::vector<RingAssignment> assignment_;
  std::int64_t budget_ = 0;
  std::int32_t half_budget_;
  std::int32_t cw_half_used_ = 0;
  std::int32_t ccw_half_used_ = 0;
  int max_phase_touched_ = -1;
  const std::atomic<std::size_t>& winner_;
  std::size_t self_index_;
};

std::vector<PendingPair> enumerate_pairs(int n) {
  std::vector<PendingPair> pairs;
  pairs.reserve(static_cast<std::size_t>(n) * static_cast<std::size_t>(n));
  for (std::int32_t s = 0; s < n; ++s) {
    for (std::int32_t d = 0; d < n; ++d) {
      PendingPair p;
      p.src = s;
      p.dst = d;
      const std::int32_t fwd = ((d - s) % n + n) % n;
      const std::int32_t bwd = n - fwd;
      if (fwd == 0) {
        p.length = 0;
        p.dirs[0] = 0;
        p.dir_count = 1;
      } else if (fwd < bwd) {
        p.length = fwd;
        p.dirs[0] = +1;
        p.dir_count = 1;
      } else if (bwd < fwd) {
        p.length = bwd;
        p.dirs[0] = -1;
        p.dir_count = 1;
      } else {
        p.length = fwd;  // == n/2, direction chosen by the search
        p.dirs[0] = +1;
        p.dirs[1] = -1;
        p.dir_count = 2;
      }
      pairs.push_back(p);
    }
  }
  return pairs;
}

/// Bit-reversal of `v` over the fewest bits covering [0, n).  Used to
/// interleave sources within an offset class so consecutive assignments
/// land far apart on the ring.
std::int32_t bit_reverse(std::int32_t v, int n) {
  int bits = 0;
  while ((1 << bits) < n) ++bits;
  std::int32_t r = 0;
  for (int i = 0; i < bits; ++i)
    if ((v >> i) & 1) r |= 1 << (bits - 1 - i);
  return r;
}

/// Primary search order: longest arcs first (most constrained), grouped by
/// offset class, sources visited in bit-reversed order.  Empirically this
/// lets the first-fit DFS find an optimal 8-phase schedule for n = 8 with
/// almost no backtracking, where a plain longest-first order needs seconds.
void order_pairs(std::vector<PendingPair>& pairs, int n) {
  std::stable_sort(pairs.begin(), pairs.end(),
                   [n](const PendingPair& a, const PendingPair& b) {
                     if (a.length != b.length) return a.length > b.length;
                     const std::int32_t oa = ((a.dst - a.src) % n + n) % n;
                     const std::int32_t ob = ((b.dst - b.src) % n + n) % n;
                     if (oa != ob) return oa < ob;
                     return bit_reverse(a.src, n) < bit_reverse(b.src, n);
                   });
}

}  // namespace

RingSchedule::RingSchedule(int n, int phase_count,
                           std::vector<RingAssignment> table)
    : n_(n), phase_count_(phase_count), table_(std::move(table)) {}

RingSchedule RingSchedule::build(int n) {
  if (n < 2 || n % 2 != 0 || n > 64)
    throw std::invalid_argument(
        "RingSchedule: ring size must be even, in [2, 64]; got " +
        std::to_string(n));

  auto pairs = enumerate_pairs(n);
  order_pairs(pairs, n);

  // Large rings (the 32x32 / 64x64 scale substrates) are out of reach of
  // the backtracking search below — its budget explodes with n — so they
  // use a deterministic first-fit construction instead: walk the pairs in
  // the same longest-first order and place each into the first phase (and
  // first feasible direction) that accepts it, opening a fresh phase
  // whenever none does.  Always succeeds, costs O(pairs x phases) mask
  // tests, and stays within a small factor of the link lower bound —
  // close enough for the product construction, where the combined
  // scheduler competes it against graph coloring anyway.
  if (n > 16) {
    std::vector<RingAssignment> table(
        static_cast<std::size_t>(n) * static_cast<std::size_t>(n));
    std::vector<PhaseState> phases;
    for (const auto& pair : pairs) {
      const std::uint64_t src_bit = std::uint64_t{1}
                                    << static_cast<unsigned>(pair.src);
      const std::uint64_t dst_bit = std::uint64_t{1}
                                    << static_cast<unsigned>(pair.dst);
      bool placed = false;
      for (std::size_t p = 0; !placed; ++p) {
        if (p == phases.size()) phases.emplace_back();
        auto& state = phases[p];
        if ((state.src_used & src_bit) || (state.dst_used & dst_bit))
          continue;
        for (int d = 0; d < pair.dir_count && !placed; ++d) {
          const std::int32_t dir = pair.dirs[d];
          const std::uint64_t arc =
              dir > 0   ? cw_mask(pair.src, pair.length, n)
              : dir < 0 ? ccw_mask(pair.src, pair.length, n)
                        : 0;
          if (dir > 0 && (state.cw_links & arc)) continue;
          if (dir < 0 && (state.ccw_links & arc)) continue;
          state.src_used |= src_bit;
          state.dst_used |= dst_bit;
          if (dir > 0) state.cw_links |= arc;
          if (dir < 0) state.ccw_links |= arc;
          table[static_cast<std::size_t>(pair.src) *
                    static_cast<std::size_t>(n) +
                static_cast<std::size_t>(pair.dst)] =
              RingAssignment{static_cast<std::int32_t>(p), dir};
          placed = true;
        }
      }
    }
    return RingSchedule(n, static_cast<int>(phases.size()),
                        std::move(table));
  }

  // Lower bound on the phase count: each node sources n pairs (self
  // included) and each phase takes at most one per source; each directed
  // ring has n links per phase and must carry half the total hop count.
  std::int64_t total_hops = 0;
  for (const auto& p : pairs) total_hops += p.length;
  const int by_links =
      static_cast<int>((total_hops / 2 + n - 1) / n);
  const int lower = std::max(n, by_links);

  // Try the lower bound first; relax by one phase at a time if the search
  // budget runs out (10/12/14/16 relax from 13/18/25/32 to 14/20/27/35).
  // Each phase count gets a deterministic attempt with a generous budget,
  // then a few randomized restarts that shuffle pairs within equal-length
  // groups.  If all fail, one extra phase is allowed rather than searching
  // forever: the paper's bound only needs tightness at n = 8, where the
  // deterministic attempt succeeds immediately.
  //
  // The shuffles do not depend on search outcomes, so every candidate's
  // pair order is drawn up front, in candidate order, and the candidates
  // run speculatively in parallel.  The lowest-indexed success wins — the
  // candidate a serial first-success loop would return — and a candidate
  // only gives up early once a lower-indexed one has succeeded.
  struct Candidate {
    int phase_count = 0;
    std::int64_t node_budget = 0;
    std::vector<PendingPair> pairs;
  };
  std::vector<Candidate> candidates;
  util::Rng rng(std::uint64_t{0x5eed} + static_cast<std::uint64_t>(n));
  for (int phase_count = lower; phase_count <= lower + 4; ++phase_count) {
    for (int attempt = 0; attempt < 5; ++attempt) {
      candidates.push_back(
          {phase_count, attempt == 0 ? 2'000'000 : 1'000'000, pairs});
      // Reshuffle while preserving the longest-first discipline.
      auto begin = pairs.begin();
      while (begin != pairs.end()) {
        auto end = begin;
        while (end != pairs.end() && end->length == begin->length) ++end;
        for (auto it = begin; it != end; ++it) {
          const auto span = std::distance(begin, end);
          const auto offset = rng.uniform(0, span - 1);
          std::iter_swap(it, begin + offset);
        }
        begin = end;
      }
    }
  }

  const std::size_t none = candidates.size();
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> winner{none};
  std::vector<RingAssignment> table;
  std::mutex table_mutex;
  const auto workers = std::min(
      static_cast<std::size_t>(util::parallel_thread_count()), none);
  util::parallel_for_chunks(workers, [&](std::size_t, std::size_t) {
    for (;;) {
      // Indices are claimed in increasing order, so once one is past the
      // winner every later one is too.
      const std::size_t i = next.fetch_add(1);
      if (i >= none || winner.load() < i) return;
      const auto& candidate = candidates[i];
      std::vector<RingAssignment> found(
          static_cast<std::size_t>(n) * static_cast<std::size_t>(n));
      Search search(n, candidate.phase_count, candidate.pairs, winner, i);
      if (!search.run(found, candidate.node_budget)) continue;
      const std::lock_guard<std::mutex> lock(table_mutex);
      if (i < winner.load()) {
        winner.store(i);
        table = std::move(found);
      }
    }
  });
  if (winner == none)
    throw std::runtime_error("RingSchedule: search failed for n=" +
                             std::to_string(n));
  return RingSchedule(n, candidates[winner].phase_count, std::move(table));
}

const RingSchedule& RingSchedule::for_size(int n) {
  // Concurrent schedulers (Pipeline compiles, cache single-flight leaders
  // for distinct keys) all funnel through this memo; the lock also gives
  // single-flight builds per size.  Returned references stay valid after
  // unlock: std::map nodes are stable and entries are never erased.
  static std::mutex mutex;
  static std::map<int, RingSchedule> cache;
  const std::lock_guard<std::mutex> lock(mutex);
  const auto it = cache.find(n);
  if (it != cache.end()) return it->second;
  return cache.emplace(n, build(n)).first->second;
}

std::size_t RingSchedule::index(int src, int dst) const {
  if (src < 0 || src >= n_ || dst < 0 || dst >= n_)
    throw std::out_of_range("RingSchedule: node out of range");
  return static_cast<std::size_t>(src) * static_cast<std::size_t>(n_) +
         static_cast<std::size_t>(dst);
}

int RingSchedule::phase_of(int src, int dst) const {
  return table_[index(src, dst)].phase;
}

int RingSchedule::dir_of(int src, int dst) const {
  return table_[index(src, dst)].dir;
}

int RingSchedule::arc_length(int src, int dst) const {
  const int dir = dir_of(src, dst);
  if (dir == 0) return 0;
  const int fwd = ((dst - src) % n_ + n_) % n_;
  return dir > 0 ? fwd : n_ - fwd;
}

}  // namespace optdm::aapc
