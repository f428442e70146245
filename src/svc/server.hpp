#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "svc/api.hpp"
#include "svc/queue.hpp"
#include "svc/server_stats.hpp"
#include "svc/stat_slabs.hpp"
#include "svc/wire.hpp"

/// \file server.hpp
/// The `optdm_served` daemon: a TCP front end over `svc::Engine`.
///
/// One accept thread hands each connection to its own reader thread.
/// Control frames (ping, stats, shutdown) are answered inline; work
/// frames (compile, simulate) are pushed onto the shared `JobQueue`
/// at the frame's priority and executed by the worker pool — which is
/// where admission control lives: a full queue rejects the request with
/// a structured `resource/queue-full` error frame instead of buffering
/// it, and the client decides whether to retry.
///
/// All connections share one `Engine`, so every request against the same
/// (topology, scheduler) pair hits the same content-addressed
/// `ScheduleCache` — a second client's warm-up is the first client's
/// compile.
///
/// Responses carry the request's frame id; a connection may pipeline
/// requests and match responses by id (per-connection writes are
/// serialized by a write mutex, so frames never interleave).
///
/// Malformed input never kills the daemon: a framing violation
/// (`frame-truncated` / `frame-garbled` / `frame-oversized` /
/// `frame-version`) or an undecodable body closes — at most — that one
/// connection, after an error frame when the stream is still writable.

namespace optdm::svc {

class Server {
 public:
  struct Options {
    /// Listen address; the daemon serves localhost by default.
    std::string host = "127.0.0.1";
    /// TCP port; 0 binds an ephemeral port (see `port()`).
    std::uint16_t port = 0;
    /// Worker threads executing queued jobs; 0 = one per hardware thread
    /// (capped at 8).
    std::size_t workers = 0;
    /// Admission bound: queued (not in-flight) jobs beyond this are
    /// rejected with `resource/queue-full`.
    std::size_t queue_capacity = 64;
    /// Seconds between periodic stats lines on stderr; 0 disables.
    std::int64_t stats_interval_s = 0;
    Engine::Options engine;
  };

  explicit Server(Options options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, and spawns the accept loop and worker pool.
  /// Throws `resource/svc-io` when the socket cannot be bound.
  void start();

  /// The bound port (resolves an ephemeral request after `start`).
  std::uint16_t port() const noexcept { return port_; }

  /// Blocks until `request_stop` is called (remotely via a
  /// shutdown frame, or locally from a signal handler's thread).
  void wait();

  /// Initiates shutdown: stop accepting, drain the queue, join
  /// everything.  Idempotent and safe from any thread.
  void request_stop();

  /// Snapshot of the aggregate counters (merged over the stat slabs;
  /// exact when quiescent — see stat_slabs.hpp for the consistency
  /// model under concurrent writers).
  ServerStats stats() const;

  /// The shared engine (tests reach through to `cache_stats`).
  Engine& engine() noexcept { return *engine_; }

 private:
  struct Connection;

  void accept_loop();
  void serve_connection(std::shared_ptr<Connection> conn);
  /// Executes one work frame (on a queue worker) and writes the
  /// response; all error paths are mapped to error frames.
  void execute(std::shared_ptr<Connection> conn, Frame request);
  void send_error(Connection& conn, const Frame& request,
                  util::FailureCode code, const std::string& message);
  void record_latency(double ms);
  /// Builds the stats-frame body from counters, engine, and queue.
  std::string stats_body() const;
  void stats_loop();
  void print_stats_line() const;

  Options options_;
  std::unique_ptr<Engine> engine_;
  std::unique_ptr<JobQueue> queue_;

  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> stopping_{false};

  std::thread accept_thread_;
  std::thread stats_thread_;
  std::mutex conn_mutex_;
  std::vector<std::shared_ptr<Connection>> connections_;

  /// Sharded counters + fixed-bucket latency histogram: the hot path
  /// increments relaxed atomics on a per-thread slab, stats reads merge.
  ShardedServerStats stat_slabs_;

  std::mutex stop_mutex_;
  std::condition_variable stop_cv_;
  bool stop_requested_ = false;
  std::mutex teardown_mutex_;
};

}  // namespace optdm::svc
