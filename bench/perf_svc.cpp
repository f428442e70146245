// Google-benchmark microbenchmarks of the service layer's hot paths —
// the pieces a warm optdm_served request is made of:
//
//  * the striped schedule cache under contention (shards=1 is the
//    historical single-lock cache, shards=8 the daemon's default; the
//    quotient is the striping win),
//  * frame-body encoding of a compile response (what a warm request
//    still pays once the cache hands out memoized schedule text),
//  * the single-writev frame send at realistic payload sizes, and
//  * the whole in-process warm compile through `svc::Engine` (everything a
//    warm daemon request does except the socket and the queue handoff).
//
// The committed baseline is bench/BENCH_svc.json; tools/bench_diff.py
// gates regressions against it (advisory in CI — see .github/workflows).

#include <benchmark/benchmark.h>

#include <fcntl.h>
#include <unistd.h>

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "apps/sched_cache.hpp"
#include "io/pattern_io.hpp"
#include "sched/combined.hpp"
#include "sched/scheduler.hpp"
#include "svc/api.hpp"
#include "svc/serialize.hpp"
#include "svc/wire.hpp"
#include "topo/torus.hpp"

namespace {

using namespace optdm;

const topo::TorusNetwork& torus() {
  static topo::TorusNetwork net(8, 8);
  return net;
}

/// The same working set the load generator drives: distinct shift
/// permutations (pattern i sends every src to (src + i + 1) mod 64).
core::RequestSet shift_pattern(int i) {
  core::RequestSet pattern;
  const int nodes = torus().node_count();
  const int shift = 1 + (i % (nodes - 1));
  for (int src = 0; src < nodes; ++src)
    pattern.push_back({src, (src + shift) % nodes});
  return pattern;
}

constexpr int kKeys = 16;

/// A pre-warmed cache with `shards` stripes plus the keys that populate
/// it.  Shared across the benchmark's threads (that is the point); built
/// once per shard count, compilations reused across fixtures.
struct CacheFixture {
  std::vector<apps::CacheKey> keys;
  apps::ScheduleCache cache;

  explicit CacheFixture(std::size_t shards)
      : cache(torus(), [&] {
          apps::ScheduleCache::Options options;
          options.capacity = 256;
          options.shards = shards;
          return options;
        }()) {
    for (int i = 0; i < kKeys; ++i) {
      const auto pattern = shift_pattern(i);
      keys.push_back(apps::make_cache_key(torus(), pattern, "combined",
                                          sched::SchedOptions{}));
      apps::CachedCompilation value;
      value.schedule = sched::combined(torus(), pattern);
      cache.store(keys.back(), value);
    }
  }
};

CacheFixture& cache_fixture(std::size_t shards) {
  static std::mutex mutex;
  static std::map<std::size_t, std::unique_ptr<CacheFixture>> fixtures;
  std::lock_guard lock(mutex);
  auto& slot = fixtures[shards];
  if (!slot) slot = std::make_unique<CacheFixture>(shards);
  return *slot;
}

// Warm-hit throughput of the striped cache: every lookup hits memory,
// threads walk the key set from offset strides so concurrent lookups
// mostly land on different keys (the daemon's warm steady state).  Run
// at shards=1 (single lock) and shards=8 (daemon default); contention is
// the only variable.
void BM_CacheWarmHit(benchmark::State& state) {
  auto& fixture = cache_fixture(static_cast<std::size_t>(state.range(0)));
  std::size_t i = static_cast<std::size_t>(state.thread_index()) * 7;
  std::int64_t hits = 0;
  for (auto _ : state) {
    auto cached = fixture.cache.lookup(fixture.keys[i++ % kKeys]);
    benchmark::DoNotOptimize(cached);
    hits += cached != nullptr;
  }
  state.SetItemsProcessed(state.iterations());
  if (hits != static_cast<std::int64_t>(state.iterations()))
    state.SkipWithError("cache lookup missed on a pre-warmed key");
}
BENCHMARK(BM_CacheWarmHit)->Arg(1)->Arg(8)->Threads(1)->Threads(4);

// The same steady state through the service entry point: get_or_compute
// on warm keys (the compute lambda never runs).  Adds the single-flight
// bookkeeping on top of BM_CacheWarmHit's raw lookup.
void BM_CacheGetOrComputeWarm(benchmark::State& state) {
  auto& fixture = cache_fixture(static_cast<std::size_t>(state.range(0)));
  std::size_t i = static_cast<std::size_t>(state.thread_index()) * 7;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fixture.cache.get_or_compute(
        fixture.keys[i++ % kKeys], [&]() -> apps::CachedCompilation {
          state.SkipWithError("compute ran on a pre-warmed key");
          return {};
        }));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheGetOrComputeWarm)->Arg(1)->Arg(8)->Threads(1)->Threads(4);

/// A realistic compile-response body: the 8x8 transpose schedule in
/// `io::write_schedule` text form (~the bytes a warm daemon response
/// carries).
const svc::CompileResponse& sample_response() {
  static const svc::CompileResponse response = [] {
    svc::CompileResponse r;
    const auto pattern = shift_pattern(0);
    const auto schedule = sched::combined(torus(), pattern);
    r.degree = schedule.degree();
    r.lower_bound = r.degree;
    r.winner = "greedy";
    r.cache_hit = true;
    std::ostringstream out;
    io::write_schedule(out, torus(), schedule);
    r.schedule_text = out.str();
    return r;
  }();
  return response;
}

// Body serialization of a compile response — the per-request cost left
// once the cache's memoized schedule text spares the write_schedule pass.
void BM_CompileResponseEncode(benchmark::State& state) {
  const auto& response = sample_response();
  for (auto _ : state) {
    benchmark::DoNotOptimize(svc::encode(response));
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(svc::encode(response).size()));
}
BENCHMARK(BM_CompileResponseEncode);

// The frame send: header + N-byte payload gathered into one writev(2)
// against /dev/null (no peer, so the syscall dominates — exactly the
// per-frame floor the daemon pays per response).
void BM_FrameWrite(benchmark::State& state) {
  static const int fd = ::open("/dev/null", O_WRONLY);
  if (fd < 0) {
    state.SkipWithError("cannot open /dev/null");
    return;
  }
  svc::Frame frame;
  frame.type = svc::FrameType::kCompileResponse;
  frame.id = 42;
  frame.payload.assign(static_cast<std::size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    svc::write_frame(fd, frame);
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(svc::kHeaderSize + frame.payload.size()));
}
BENCHMARK(BM_FrameWrite)->Arg(64)->Arg(4096)->Arg(65536);

// One warm `svc::Engine::compile` of a 64-node permutation already in the
// engine's shared cache: pipeline resolve, cache key, shared-entry hit,
// the per-response `validate_against` check and the response assembly.
void BM_EngineCompileWarm(benchmark::State& state) {
  svc::Engine engine;
  svc::CompileRequest request;
  request.pattern = shift_pattern(0);
  (void)engine.compile(request);
  for (auto _ : state) {
    auto response = engine.compile(request);
    if (!response.cache_hit) {
      state.SkipWithError("warm compile missed the cache");
      break;
    }
    benchmark::DoNotOptimize(response);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EngineCompileWarm);

}  // namespace

BENCHMARK_MAIN();
