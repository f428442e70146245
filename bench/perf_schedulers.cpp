// Google-benchmark microbenchmarks of the scheduling algorithms and the
// substrates they sit on.  These measure the *compiler-side* cost of
// compiled communication — the paper's argument is that this cost is paid
// off-line, so it may be large; this bench quantifies "large".

#include <benchmark/benchmark.h>

#include <map>
#include <memory>

#include "aapc/ring_schedule.hpp"
#include "aapc/torus_aapc.hpp"
#include "apps/pipeline.hpp"
#include "patterns/named.hpp"
#include "patterns/random.hpp"
#include "redist/redistribution.hpp"
#include "sched/coloring.hpp"
#include "sched/combined.hpp"
#include "sched/greedy.hpp"
#include "sched/ordered_aapc.hpp"
#include "sim/dynamic.hpp"
#include "topo/torus.hpp"
#include "util/rng.hpp"

namespace {

using namespace optdm;

const topo::TorusNetwork& torus() {
  static topo::TorusNetwork net(8, 8);
  return net;
}

const aapc::TorusAapc& torus_aapc() {
  static aapc::TorusAapc decomposition(torus());
  return decomposition;
}

// A 16x16 torus for production-scale patterns: the 8x8 universe tops out
// at 64*63 = 4032 distinct connections, so the 8k/16k "Large" benches run
// over 256 nodes.
const topo::TorusNetwork& big_torus() {
  static topo::TorusNetwork net(16, 16);
  return net;
}

// An n x n torus, built once per size.
const topo::TorusNetwork& square_torus(int n) {
  static std::map<int, std::unique_ptr<topo::TorusNetwork>> nets;
  auto& net = nets[n];
  if (!net) net = std::make_unique<topo::TorusNetwork>(n, n);
  return *net;
}

// An n x n torus's AAPC decomposition, built once per size.
const aapc::TorusAapc& square_torus_aapc(int n) {
  static std::map<int, std::unique_ptr<aapc::TorusAapc>> decompositions;
  auto& decomposition = decompositions[n];
  if (!decomposition)
    decomposition = std::make_unique<aapc::TorusAapc>(square_torus(n));
  return *decomposition;
}

core::RequestSet pattern_of_size(int conns) {
  util::Rng rng(static_cast<std::uint64_t>(conns) * 7 + 1);
  return patterns::random_pattern(64, conns, rng);
}

core::RequestSet big_pattern_of_size(int conns) {
  util::Rng rng(static_cast<std::uint64_t>(conns) * 11 + 3);
  return patterns::random_pattern(256, conns, rng);
}

void BM_Routing(benchmark::State& state) {
  const auto requests = pattern_of_size(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::route_all(torus(), requests));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Routing)->Arg(100)->Arg(1000)->Arg(4000);

// Routing a whole n x n all-to-all: each path keeps only its link list.
void BM_RouteAll(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto& net = square_torus(n);
  const auto requests = patterns::all_to_all(n * n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::route_all(net, requests));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(requests.size()));
}
BENCHMARK(BM_RouteAll)->Arg(12)->Arg(16)->Unit(benchmark::kMillisecond);

// Re-validating every configuration of an n x n all-to-all schedule, the
// check a service response runs: one bit probe per link of every path.
void BM_ValidateSchedule(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto schedule =
      sched::greedy(square_torus(n), patterns::all_to_all(n * n));
  for (auto _ : state) {
    for (const auto& config : schedule.configurations())
      benchmark::DoNotOptimize(config.validate());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(schedule.connection_count()));
}
BENCHMARK(BM_ValidateSchedule)->Arg(8)->Arg(16);

// The link→paths occupancy index and its conflict-degree pass: what the
// coloring, the bounds and the exact solver read instead of a conflict
// graph.
void BM_ConflictIndex(benchmark::State& state) {
  const auto paths = core::route_all(
      torus(), pattern_of_size(static_cast<int>(state.range(0))));
  for (auto _ : state) {
    const auto index = sched::ConflictIndex::build(paths);
    benchmark::DoNotOptimize(index.degrees.data());
  }
}
BENCHMARK(BM_ConflictIndex)->Arg(100)->Arg(1000)->Arg(4000);

void BM_ConflictIndexLarge(benchmark::State& state) {
  const auto paths = core::route_all(
      big_torus(), big_pattern_of_size(static_cast<int>(state.range(0))));
  for (auto _ : state) {
    const auto index = sched::ConflictIndex::build(paths);
    benchmark::DoNotOptimize(index.degrees.data());
  }
}
BENCHMARK(BM_ConflictIndexLarge)->Arg(8000)->Arg(16000);

void BM_Greedy(benchmark::State& state) {
  const auto paths = core::route_all(
      torus(), pattern_of_size(static_cast<int>(state.range(0))));
  for (auto _ : state) {
    benchmark::DoNotOptimize(sched::greedy_paths(torus(), paths).degree());
  }
}
BENCHMARK(BM_Greedy)->Arg(100)->Arg(1000)->Arg(4000);

void BM_Coloring(benchmark::State& state) {
  const auto paths = core::route_all(
      torus(), pattern_of_size(static_cast<int>(state.range(0))));
  for (auto _ : state) {
    benchmark::DoNotOptimize(sched::coloring_paths(torus(), paths).degree());
  }
}
BENCHMARK(BM_Coloring)->Arg(100)->Arg(1000)->Arg(4000);

void BM_ColoringLarge(benchmark::State& state) {
  const auto paths = core::route_all(
      big_torus(), big_pattern_of_size(static_cast<int>(state.range(0))));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sched::coloring_paths(big_torus(), paths).degree());
  }
}
BENCHMARK(BM_ColoringLarge)->Arg(8000)->Arg(16000);

// Exercises the concurrent coloring + ordered-AAPC branches.
void BM_Combined(benchmark::State& state) {
  const auto requests = pattern_of_size(static_cast<int>(state.range(0)));
  const auto& decomposition = torus_aapc();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sched::combined(decomposition, requests).degree());
  }
}
BENCHMARK(BM_Combined)->Arg(1000)->Arg(4000);

// The full combined compile of a 12x12 all-to-all: route, index, then
// coloring beside ordered-AAPC and the lower bound.
void BM_CombinedAllToAll(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto& decomposition = square_torus_aapc(n);
  const auto requests = patterns::all_to_all(n * n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sched::combined(decomposition, requests).degree());
  }
}
BENCHMARK(BM_CombinedAllToAll)
    ->Arg(12)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_OrderedAapc(benchmark::State& state) {
  const auto requests = pattern_of_size(static_cast<int>(state.range(0)));
  const auto& decomposition = torus_aapc();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sched::ordered_aapc(decomposition, requests).degree());
  }
}
BENCHMARK(BM_OrderedAapc)->Arg(100)->Arg(1000)->Arg(4000);

// Ordered-AAPC on a dense pattern above 8x8, where its greedy step places
// hundreds of configurations (289 at 12x12, 662 at 16x16) and the combined
// scheduler discards its result.
void BM_OrderedAapcAllToAll(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto& decomposition = square_torus_aapc(n);
  const auto requests = patterns::all_to_all(n * n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sched::ordered_aapc(decomposition, requests).degree());
  }
}
BENCHMARK(BM_OrderedAapcAllToAll)
    ->Arg(12)
    ->Arg(16)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_AapcConstruction(benchmark::State& state) {
  // Cost of building the torus AAPC phase structure (ring schedules are
  // memoized after the first call, which is the realistic compiler setup).
  benchmark::DoNotOptimize(torus_aapc().phase_count());
  for (auto _ : state) {
    aapc::TorusAapc decomposition(torus());
    benchmark::DoNotOptimize(decomposition.phase_count());
  }
}
BENCHMARK(BM_AapcConstruction);

void BM_RingScheduleBuild(benchmark::State& state) {
  // The ring schedule search itself, unmemoized: what the first process
  // to touch an n x n torus pays (BM_AapcConstruction above only times
  // the memoized lookup).  10, 12 and 16 each relax past their lower
  // bound, so every failing candidate runs out its node budget.
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(aapc::RingSchedule::build(n).phase_count());
  }
}
BENCHMARK(BM_RingScheduleBuild)
    ->Arg(10)
    ->Arg(12)
    ->Arg(16)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_RedistributionPlan(benchmark::State& state) {
  util::Rng rng(42);
  const auto from = redist::random_distribution({64, 64, 64}, 64, rng);
  const auto to = redist::random_distribution({64, 64, 64}, 64, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        redist::plan_redistribution(from, to).transfers.size());
  }
}
BENCHMARK(BM_RedistributionPlan);

// Pipeline cold path: every compile misses the cache and pays the full
// combined-scheduler cost (cache disabled so the loop measures compiles,
// not insert/evict churn).
void BM_PipelineCold(benchmark::State& state) {
  const auto requests = pattern_of_size(static_cast<int>(state.range(0)));
  apps::PipelineOptions options;
  options.use_cache = false;
  apps::Pipeline pipeline(torus(), options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        pipeline.compile_phase(requests).phase.schedule.degree());
  }
}
BENCHMARK(BM_PipelineCold)->Arg(1000)->Arg(4000);

// Pipeline warm path: the same compile served from the in-memory cache.
// The cold/warm ratio is the payoff of content-addressed compilation for
// repeated static patterns (the paper's compile-once premise).
void BM_PipelineWarm(benchmark::State& state) {
  const auto requests = pattern_of_size(static_cast<int>(state.range(0)));
  apps::Pipeline pipeline(torus(), apps::PipelineOptions{});
  benchmark::DoNotOptimize(
      pipeline.compile_phase(requests).phase.schedule.degree());  // warm it
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        pipeline.compile_phase(requests).phase.schedule.degree());
  }
}
BENCHMARK(BM_PipelineWarm)->Arg(1000)->Arg(4000);

void BM_DynamicSimulation(benchmark::State& state) {
  const auto requests = pattern_of_size(static_cast<int>(state.range(0)));
  const auto messages = sim::uniform_messages(requests, 4);
  sim::DynamicParams params;
  params.multiplexing_degree = 2;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sim::simulate_dynamic(torus(), messages, params).total_slots);
  }
}
BENCHMARK(BM_DynamicSimulation)->Arg(100)->Arg(1000);

}  // namespace

BENCHMARK_MAIN();
