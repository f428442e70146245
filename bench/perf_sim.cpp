// Google-benchmark microbenchmarks of the *runtime* side: the cycle-level
// simulators and the sweep engine they feed.  The compiler-side costs live
// in perf_schedulers.cpp; this file tracks the hot paths the experiment
// drivers spend their wall-clock in — the dynamic-protocol event loop
// (slot queue + SoA arenas), switch-level execution, and a full
// (phase x K) sweep through `apps::SweepRunner`.
//
// The committed baseline is bench/BENCH_sim.json; tools/bench_diff.py
// gates regressions against it (advisory in CI — see .github/workflows).

#include <benchmark/benchmark.h>

#include <cstdint>
#include <map>
#include <vector>

#include "apps/sweep.hpp"
#include "apps/workloads.hpp"
#include "core/switch_program.hpp"
#include "patterns/random.hpp"
#include "sched/combined.hpp"
#include "sim/compiled.hpp"
#include "sim/dynamic.hpp"
#include "sim/faults.hpp"
#include "sim/hardware.hpp"
#include "topo/torus.hpp"
#include "util/rng.hpp"

namespace {

using namespace optdm;

const topo::TorusNetwork& torus() {
  static topo::TorusNetwork net(8, 8);
  return net;
}

core::RequestSet pattern_of_size(int conns) {
  util::Rng rng(static_cast<std::uint64_t>(conns) * 7 + 1);
  return patterns::random_pattern(64, conns, rng);
}

// The dynamic-protocol event loop on a healthy fabric: the per-event cost
// of the calendar queue, the SoA message arenas, and the flat per-source
// queues.  Same workload shape as perf_schedulers' BM_DynamicSimulation
// (kept there for cross-baseline comparability).
void BM_DynamicSim(benchmark::State& state) {
  const auto requests = pattern_of_size(static_cast<int>(state.range(0)));
  const auto messages = sim::uniform_messages(requests, 4);
  sim::DynamicParams params;
  params.multiplexing_degree = 2;
  std::int64_t events = 0;
  for (auto _ : state) {
    const auto result = sim::simulate_dynamic(torus(), messages, params);
    benchmark::DoNotOptimize(result.total_slots);
    events += result.total_retries;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(messages.size()));
}
BENCHMARK(BM_DynamicSim)->Arg(100)->Arg(1000)->Arg(4000);

// Mega-scale rows: the same event loop at 1e5 / 1e6 messages on the
// 32x32 torus at K=8 (ROADMAP item 3).  Message streams of that size
// repeat (src, dst) pairs, so they sample with replacement.  The CI
// advisory bench diff excludes these rows via
// --benchmark_filter='-BM_DynamicSimLarge' (see
// .github/workflows/ci.yml); the 1e6 row runs once in its own advisory
// smoke step — wall-clock this long is smoke-tested, not gated.
const std::vector<sim::Message>& large_messages(std::int64_t count) {
  static std::map<std::int64_t, std::vector<sim::Message>> cache;
  auto [it, fresh] = cache.try_emplace(count);
  if (fresh) {
    util::Rng rng(static_cast<std::uint64_t>(count) * 31 + 5);
    it->second = sim::uniform_messages(
        patterns::random_pattern_with_replacement(
            32 * 32, static_cast<int>(count), rng),
        1);
  }
  return it->second;
}

void BM_DynamicSimLarge(benchmark::State& state) {
  static const auto net = topo::TorusNetwork::scale_32x32();
  const auto& messages = large_messages(state.range(0));
  sim::DynamicParams params;
  params.multiplexing_degree = 8;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sim::simulate_dynamic(net, messages, params).total_slots);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(messages.size()));
}
BENCHMARK(BM_DynamicSimLarge)
    ->Arg(100'000)
    ->Arg(1'000'000)
    ->Unit(benchmark::kMillisecond);

// The faulted variant pays the timeline checks the healthy path hoists
// out (`down()` scans, timeout events, payload-loss marking).
void BM_DynamicSimFaulted(benchmark::State& state) {
  const auto requests = pattern_of_size(static_cast<int>(state.range(0)));
  const auto messages = sim::uniform_messages(requests, 4);
  sim::DynamicParams params;
  params.multiplexing_degree = 2;
  params.retry_budget = 8;
  params.max_backoff_slots = 512;
  sim::FaultSpec spec;
  spec.kill_probability = 0.02;
  spec.flap_probability = 0.05;
  spec.ctrl_loss = 0.05;
  const auto timeline = sim::random_fault_timeline(torus(), spec);
  sim::SimOptions faulted;
  faulted.faults = &timeline;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sim::simulate_dynamic(torus(), messages, params, faulted)
            .total_slots);
  }
}
BENCHMARK(BM_DynamicSimFaulted)->Arg(100)->Arg(1000);

// Switch-level execution: the per-slot cost of the crossbar walk with the
// per-slot channel index (each tick visits only its own senders).
void BM_HardwareSim(benchmark::State& state) {
  const auto requests = pattern_of_size(static_cast<int>(state.range(0)));
  const auto messages = sim::uniform_messages(requests, 4);
  const auto schedule = sched::combined(torus(), requests);
  const core::SwitchProgram program(torus(), schedule);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sim::execute_on_hardware(torus(), schedule, program, messages)
            .total_slots);
  }
}
BENCHMARK(BM_HardwareSim)->Arg(100)->Arg(1000);

// The stepped analytic model (per-slot channel index, no event queue).
void BM_CompiledStepped(benchmark::State& state) {
  const auto requests = pattern_of_size(static_cast<int>(state.range(0)));
  const auto messages = sim::uniform_messages(requests, 4);
  const auto schedule = sched::combined(torus(), requests);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sim::simulate_compiled_stepped(schedule, messages).total_slots);
  }
}
BENCHMARK(BM_CompiledStepped)->Arg(100)->Arg(1000);

// A table5-shaped sweep: (3 phases x K in {1,2,5,10}) dynamic cells plus
// the compiled side through the schedule cache, fanned across the pool.
// Tracks the end-to-end driver cost, cache reuse included (the runner —
// and so its warm cache — persists across iterations, as in a driver
// compiling the same phases repeatedly).
void BM_Sweep(benchmark::State& state) {
  apps::SweepGrid grid;
  grid.phases.push_back(apps::gs_phase(64, 64));
  grid.phases.push_back(apps::tscf_phase(64));
  grid.phases.push_back(apps::p3m_phases(32)[1]);
  for (const int k : {1, 2, 5, 10}) {
    apps::DynamicVariant variant;
    variant.label = "K=" + std::to_string(k);
    variant.params.multiplexing_degree = k;
    grid.dynamic.push_back(std::move(variant));
  }
  apps::SweepRunner runner(torus());
  for (auto _ : state) {
    benchmark::DoNotOptimize(runner.run(grid).dynamic.size());
  }
}
BENCHMARK(BM_Sweep);

}  // namespace

BENCHMARK_MAIN();
