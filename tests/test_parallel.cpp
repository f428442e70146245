// Tests for the util::parallel thread pool: coverage of every index,
// determinism of per-index writes, nested regions, parallel_invoke, and
// exception propagation.  A custom main() sets OPTDM_THREADS=4 (unless the
// caller already set it) before the pool's lazy construction, so these
// tests exercise real cross-thread execution even on single-core CI — and
// race-check it when built with -DOPTDM_ENABLE_TSAN=ON.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <future>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "brute_force_graph.hpp"
#include "core/conflict_graph.hpp"
#include "core/link_occupancy.hpp"
#include "patterns/random.hpp"
#include "topo/torus.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace {

using namespace optdm;

TEST(Parallel, ThreadCountIsPositive) {
  EXPECT_GE(util::parallel_thread_count(), 1);
}

TEST(Parallel, ForCoversEveryIndexExactlyOnce) {
  const std::size_t n = 10007;
  std::vector<std::atomic<int>> hits(n);
  util::parallel_for(n, [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(Parallel, ForChunksPartitionExactly) {
  const std::size_t n = 1234;
  std::vector<std::atomic<int>> hits(n);
  util::parallel_for_chunks(n, [&](std::size_t begin, std::size_t end) {
    EXPECT_LT(begin, end);
    for (std::size_t i = begin; i < end; ++i) ++hits[i];
  });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(Parallel, ZeroIterationsIsANoop) {
  bool called = false;
  util::parallel_for(0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(Parallel, PerIndexWritesAreDeterministic) {
  const std::size_t n = 5000;
  std::vector<std::uint64_t> a(n), b(n);
  const auto body = [](std::size_t i) {
    std::uint64_t x = i * 0x9e3779b97f4a7c15ULL + 1;
    x ^= x >> 31;
    return x * x;
  };
  util::parallel_for(n, [&](std::size_t i) { a[i] = body(i); });
  util::parallel_for(n, [&](std::size_t i) { b[i] = body(i); });
  EXPECT_EQ(a, b);
}

TEST(Parallel, NestedForRunsSerially) {
  const std::size_t outer = 16;
  const std::size_t inner = 64;
  std::vector<std::uint64_t> sums(outer, 0);
  util::parallel_for(outer, [&](std::size_t o) {
    // The nested region must complete inline without deadlocking.
    util::parallel_for(inner, [&](std::size_t i) { sums[o] += i; });
  });
  for (const auto sum : sums) EXPECT_EQ(sum, inner * (inner - 1) / 2);
}

TEST(Parallel, InvokeRunsBothBranches) {
  int a = 0;
  int b = 0;
  util::parallel_invoke([&] { a = 1; }, [&] { b = 2; });
  EXPECT_EQ(a, 1);
  EXPECT_EQ(b, 2);
}

TEST(Parallel, ForPropagatesExceptions) {
  EXPECT_THROW(
      util::parallel_for(100,
                         [](std::size_t i) {
                           if (i == 57)
                             throw std::runtime_error("index 57 failed");
                         }),
      std::runtime_error);
}

TEST(Parallel, InvokePropagatesExceptionsFromEitherBranch) {
  EXPECT_THROW(util::parallel_invoke([] { throw std::logic_error("a"); },
                                     [] {}),
               std::logic_error);
  EXPECT_THROW(util::parallel_invoke([] {},
                                     [] { throw std::logic_error("b"); }),
               std::logic_error);
}

TEST(Parallel, RegionCompletesWhileEveryWorkerIsBlocked) {
  // The caller of a region runs every chunk no worker has started, so a
  // region on a non-pool thread completes even while every pool worker is
  // blocked — here on a latch that opens only after the region returns.
  // (The memoized ring schedule search runs a region under its lock while
  // pool workers may be waiting for that lock.)
  const auto threads =
      static_cast<std::size_t>(util::parallel_thread_count());
  if (threads < 2) GTEST_SKIP() << "needs pool workers";

  std::mutex mutex;
  std::condition_variable cv;
  std::size_t parked = 0;
  bool open = false;
  // One chunk per thread: the parking thread and every worker each block
  // in one.
  std::thread parker([&] {
    util::parallel_for_chunks(threads, [&](std::size_t, std::size_t) {
      std::unique_lock<std::mutex> lock(mutex);
      ++parked;
      cv.notify_all();
      cv.wait(lock, [&] { return open; });
    });
  });
  bool all_parked = false;
  {
    std::unique_lock<std::mutex> lock(mutex);
    all_parked = cv.wait_for(lock, std::chrono::seconds(20),
                             [&] { return parked == threads; });
  }

  std::atomic<std::size_t> covered{0};
  std::atomic<int> invoked{0};
  std::promise<void> done;
  auto finished = done.get_future();
  std::thread runner([&] {
    util::parallel_for(1000, [&](std::size_t) { ++covered; });
    util::parallel_invoke([&] { ++invoked; }, [&] { ++invoked; });
    done.set_value();
  });
  // A region that waited on a queued chunk would hang until the latch
  // opens; bound the wait so a regression fails instead of hanging.
  const bool completed = finished.wait_for(std::chrono::seconds(20)) ==
                         std::future_status::ready;
  {
    const std::lock_guard<std::mutex> lock(mutex);
    open = true;
  }
  cv.notify_all();
  parker.join();
  runner.join();

  ASSERT_TRUE(all_parked) << "pool workers never all picked up a chunk";
  EXPECT_TRUE(completed) << "region waited on chunks no worker could start";
  EXPECT_EQ(covered.load(), 1000u);
  EXPECT_EQ(invoked.load(), 2);
}

TEST(Parallel, ConflictGraphIsThreadCountInvariant) {
  // The conflict graph builds its vertex rows in parallel; the result must
  // be identical no matter how the chunks land on workers.  Repeat a few
  // times to give TSan scheduling variety.
  topo::TorusNetwork net(8, 8);
  util::Rng rng(7);
  const auto paths =
      core::route_all(net, patterns::random_pattern(64, 600, rng));
  const core::ConflictGraph first(paths);
  for (int round = 0; round < 3; ++round) {
    const core::ConflictGraph again(paths);
    ASSERT_EQ(again.edge_count(), first.edge_count());
    for (std::int32_t v = 0; v < first.vertex_count(); ++v) {
      const auto expected = first.neighbors(v);
      const auto actual = again.neighbors(v);
      ASSERT_TRUE(std::equal(expected.begin(), expected.end(),
                             actual.begin(), actual.end()));
    }
  }
}

TEST(Parallel, ConflictDegreesAreThreadCountInvariant) {
  // The degree pass runs in parallel chunks, each deduplicating through
  // its own stamp array.  It must match a serial run of the same pass (a
  // region nested in a worker runs inline) and the all-pairs graph, on
  // every repeat.
  topo::TorusNetwork net(8, 8);
  util::Rng rng(7);
  const auto paths =
      core::route_all(net, patterns::random_pattern(64, 600, rng));
  const core::LinkOccupancy index(paths);
  const oracle::BruteForceGraph reference(paths);
  std::vector<int> serial;
  util::parallel_invoke([&] { serial = index.conflict_degrees(); }, [] {});
  ASSERT_EQ(serial.size(), paths.size());
  for (std::int32_t v = 0; v < reference.vertex_count(); ++v)
    ASSERT_EQ(serial[static_cast<std::size_t>(v)], reference.degree(v))
        << "vertex " << v;
  for (int round = 0; round < 3; ++round)
    ASSERT_EQ(index.conflict_degrees(), serial);
}

}  // namespace

int main(int argc, char** argv) {
  // Force real workers before the pool is created (single-core machines
  // would otherwise run everything inline and test nothing concurrent).
  // An explicit OPTDM_THREADS from the environment wins.
  setenv("OPTDM_THREADS", "4", /*overwrite=*/0);
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
