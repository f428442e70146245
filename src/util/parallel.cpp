#include "util/parallel.hpp"

#include <pthread.h>

#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace optdm::util {

namespace {

thread_local bool tls_in_worker = false;

/// Set in the child of every fork().  Worker threads do not survive a
/// fork, so a forked child (a sweep shard worker) must never touch the
/// inherited pool object: all parallel helpers run inline there instead.
/// Shard workers exit via `_exit`, so the dead pool's destructor (which
/// would join threads that no longer exist) never runs in the child.
std::atomic<bool> g_forked_child{false};

struct AtforkInstaller {
  AtforkInstaller() {
    ::pthread_atfork(nullptr, nullptr,
                     [] { g_forked_child.store(true,
                                               std::memory_order_relaxed); });
  }
};
const AtforkInstaller g_atfork_installer;

bool in_forked_child() {
  return g_forked_child.load(std::memory_order_relaxed);
}

/// Fixed-size worker pool with a single FIFO task queue.  Workers live for
/// the process lifetime; the queue only ever holds tasks of currently
/// blocked parallel regions, so it stays tiny.
class Pool {
 public:
  static Pool& instance() {
    static Pool pool;
    return pool;
  }

  int thread_count() const noexcept { return thread_count_; }

  void submit(std::function<void()> task) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      queue_.push_back(std::move(task));
    }
    cv_.notify_one();
  }

 private:
  Pool() {
    int count = 0;
    if (const char* env = std::getenv("OPTDM_THREADS")) {
      count = std::atoi(env);
    }
    if (count <= 0) {
      count = static_cast<int>(std::thread::hardware_concurrency());
    }
    thread_count_ = count > 0 ? count : 1;
    // One worker fewer than the thread count: the caller of a parallel
    // region always executes its own share inline.
    for (int i = 0; i < thread_count_ - 1; ++i) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  }

  ~Pool() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    for (auto& worker : workers_) worker.join();
  }

  void worker_loop() {
    tls_in_worker = true;
    for (;;) {
      std::function<void()> task;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
        if (stop_ && queue_.empty()) return;
        task = std::move(queue_.front());
        queue_.pop_front();
      }
      task();
    }
  }

  int thread_count_ = 1;
  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
};

/// Shared state of one parallel region.  Chunks are claimed from `next` by
/// whichever thread gets there first: a pool worker running one of the
/// region's queued tasks, or the caller once its own share is done.  So a
/// region never waits on a chunk nobody has started, and it completes even
/// when every worker is blocked elsewhere (say, on a lock the caller
/// holds).  The state is shared with the queued tasks because a task can
/// be dequeued after the region returned; it then finds nothing left to
/// claim and never touches `work`, whose captures live on the caller's
/// stack.
struct Region {
  Region(std::size_t chunk_count, std::function<void(std::size_t)> chunk_work)
      : chunks(chunk_count), work(std::move(chunk_work)), pending(chunk_count) {}

  const std::size_t chunks;
  const std::function<void(std::size_t)> work;
  std::atomic<std::size_t> next{0};
  std::mutex mutex;
  std::condition_variable done;
  std::size_t pending;
  std::exception_ptr error;

  /// Claims and runs the next unstarted chunk; false once none is left.
  bool run_next() {
    const std::size_t chunk = next.fetch_add(1, std::memory_order_relaxed);
    if (chunk >= chunks) return false;
    std::exception_ptr chunk_error;
    try {
      work(chunk);
    } catch (...) {
      chunk_error = std::current_exception();
    }
    const std::lock_guard<std::mutex> lock(mutex);
    if (chunk_error && !error) error = std::move(chunk_error);
    if (--pending == 0) done.notify_all();
    return true;
  }

  /// Runs unstarted chunks on the calling thread, then waits for the ones
  /// workers picked up.  The caller runs its share marked as in-region, so
  /// a nested parallel_for inside a chunk runs serially on every thread
  /// alike (workers carry the flag permanently).
  void help_and_wait() {
    tls_in_worker = true;
    while (run_next()) {
    }
    tls_in_worker = false;
    std::unique_lock<std::mutex> lock(mutex);
    done.wait(lock, [this] { return pending == 0; });
  }

  /// Queues one task per worker-side chunk; each runs chunks until none is
  /// left.
  static void submit(Pool& pool, const std::shared_ptr<Region>& region,
                     std::size_t tasks) {
    for (std::size_t t = 0; t < tasks; ++t)
      pool.submit([region] {
        while (region->run_next()) {
        }
      });
  }
};

}  // namespace

int parallel_thread_count() {
  if (in_forked_child()) return 1;
  return Pool::instance().thread_count();
}

bool in_parallel_region() { return tls_in_worker; }

void parallel_for_chunks(
    std::size_t n,
    const std::function<void(std::size_t, std::size_t)>& body) {
  if (n == 0) return;
  if (in_forked_child()) {  // single-threaded post-fork; see g_forked_child
    body(0, n);
    return;
  }
  auto& pool = Pool::instance();
  const auto threads = static_cast<std::size_t>(pool.thread_count());
  // Nested regions and single-threaded pools run inline; chunk boundaries
  // never affect results (the determinism contract), only scheduling.
  if (threads <= 1 || tls_in_worker || n == 1) {
    body(0, n);
    return;
  }

  const std::size_t chunks = n < threads ? n : threads;
  const std::size_t base = n / chunks;
  const std::size_t extra = n % chunks;
  const auto region = std::make_shared<Region>(
      chunks, [&body, base, extra](std::size_t c) {
        // Chunk c covers [c*base + min(c, extra), ...) — contiguous, exact.
        const std::size_t begin = c * base + (c < extra ? c : extra);
        body(begin, begin + base + (c < extra ? 1 : 0));
      });
  Region::submit(pool, region, chunks - 1);
  region->help_and_wait();
  if (region->error) std::rethrow_exception(region->error);
}

void parallel_for(std::size_t n,
                  const std::function<void(std::size_t)>& body) {
  parallel_for_chunks(n, [&body](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) body(i);
  });
}

void parallel_invoke(const std::function<void()>& a,
                     const std::function<void()>& b) {
  if (in_forked_child()) {
    a();
    b();
    return;
  }
  auto& pool = Pool::instance();
  if (pool.thread_count() <= 1 || tls_in_worker) {
    a();
    b();
    return;
  }
  const auto region =
      std::make_shared<Region>(1, [&a](std::size_t) { a(); });
  Region::submit(pool, region, 1);
  std::exception_ptr b_error;
  tls_in_worker = true;
  try {
    b();
  } catch (...) {
    b_error = std::current_exception();
  }
  tls_in_worker = false;
  region->help_and_wait();
  if (b_error) std::rethrow_exception(b_error);
  if (region->error) std::rethrow_exception(region->error);
}

}  // namespace optdm::util
