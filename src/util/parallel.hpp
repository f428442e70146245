#pragma once

#include <cstddef>
#include <functional>

/// \file parallel.hpp
/// A small shared thread pool for the offline compilation pipeline.
///
/// The paper's argument is that connection scheduling is paid off-line by
/// the compiler, so the compiler should use every core the build machine
/// has: conflict-graph construction, the two branches of the combined
/// algorithm, and batch pattern compilation in the table benches all fan
/// out through these helpers.
///
/// **Determinism contract.**  `parallel_for(n, body)` calls `body(i)`
/// exactly once for every `i` in `[0, n)`, partitioned into contiguous
/// index chunks.  Callers must write only to per-index (or per-chunk)
/// state; any reduction is then performed by the caller serially in index
/// order after the call returns.  Under that discipline results are
/// bit-identical for every thread count, including 1.
///
/// **Nesting.**  A `parallel_for` issued from inside a pool worker runs
/// serially on that worker (no new tasks are enqueued), so nested
/// parallelism cannot deadlock and inner loops cost nothing extra.
///
/// **Progress.**  A region never waits on a chunk no thread has started:
/// the caller runs, inline, every chunk no worker has claimed yet.  So a
/// region completes even when every worker is blocked — for example on a
/// lock the caller holds while running the region (the memoized ring
/// schedule search does exactly that).
///
/// **Configuration.**  The pool is created lazily on first use with
/// `OPTDM_THREADS` workers if that environment variable is set to a
/// positive integer, else `std::thread::hardware_concurrency()`.
/// `OPTDM_THREADS=1` disables threading entirely (all helpers run inline).

namespace optdm::util {

/// Number of workers the global pool runs with (>= 1).  Reads
/// `OPTDM_THREADS` on first call.
int parallel_thread_count();

/// True when called from inside a pool worker thread; used to serialize
/// nested parallel regions.
bool in_parallel_region();

/// Calls `body(i)` for every `i` in `[0, n)` across the pool, in
/// contiguous chunks.  Blocks until every call returned.  The first
/// exception thrown by any invocation is rethrown on the calling thread
/// (after all chunks finished).
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body);

/// Chunked variant: calls `body(begin, end)` for a partition of `[0, n)`
/// into at most `parallel_thread_count()` contiguous half-open ranges.
/// Prefer this when per-index dispatch overhead matters.
void parallel_for_chunks(
    std::size_t n,
    const std::function<void(std::size_t, std::size_t)>& body);

/// Runs `a` and `b` concurrently (b on the calling thread; a too, if no
/// worker has picked it up by the time b returns) and waits for both.  Exceptions propagate; if both throw, `b`'s exception wins.
void parallel_invoke(const std::function<void()>& a,
                     const std::function<void()>& b);

}  // namespace optdm::util
