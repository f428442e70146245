#pragma once

#include <memory>

#include "aapc/torus_aapc.hpp"
#include "apps/workloads.hpp"
#include "sched/combined.hpp"
#include "sim/compiled.hpp"
#include "topo/torus.hpp"

/// \file compiler.hpp
/// `CommCompiler` — the library facade tying the pieces together the way
/// the paper's compiler would: take a static communication phase, run the
/// combined off-line scheduling algorithm, and hand back the configuration
/// set (the multiplexing degree and switch settings) plus a predicted
/// communication time.  This is the entry point the examples use.

namespace optdm::apps {

/// A compiled communication phase.
struct CompiledPhase {
  /// The configuration set; its size is the multiplexing degree the TDM
  /// network is programmed with for this phase.
  core::Schedule schedule;
  /// Which component heuristic won (coloring vs ordered-AAPC).
  sched::CombinedWinner winner = sched::CombinedWinner::kColoring;
  /// Lower bound on any schedule's degree for this pattern (link
  /// congestion / clique); schedule.degree() >= lower_bound always.
  int lower_bound = 0;
};

/// Off-line connection-scheduling compiler for one torus network.
///
/// Construction binds the torus AAPC phase decomposition, two lookups in
/// the memoized `aapc::RingSchedule::for_size` table (only the first
/// compiler for a ring size pays that table's search); `compile` runs the
/// combined scheduler per phase.
class CommCompiler {
 public:
  explicit CommCompiler(const topo::TorusNetwork& net);

  const topo::TorusNetwork& network() const noexcept { return *net_; }
  const aapc::TorusAapc& aapc() const noexcept { return *aapc_; }

  /// Schedules a pattern with the paper's combined algorithm.  A non-null
  /// `counters` collects the scheduling phases' timings and work counters
  /// (see `obs::SchedCounters`); null skips all measurement.
  CompiledPhase compile(const core::RequestSet& pattern,
                        obs::SchedCounters* counters = nullptr) const;

  /// Compiles a workload phase and predicts its runtime under compiled
  /// communication.
  sim::CompiledResult execute(const CommPhase& phase,
                              const sim::CompiledParams& params = {}) const;

 private:
  const topo::TorusNetwork* net_;
  std::unique_ptr<aapc::TorusAapc> aapc_;
};

}  // namespace optdm::apps
