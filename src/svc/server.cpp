#include "svc/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <thread>

#include "svc/serialize.hpp"
#include "util/failure.hpp"

namespace optdm::svc {

namespace {

using util::Failure;
using util::FailureCode;

double elapsed_ms(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - since)
      .count();
}

}  // namespace

/// One accepted socket.  The reader thread owns the fd's lifetime; the
/// write mutex serializes response frames (queue workers and the reader
/// both send) and gates against the fd closing under a writer.
struct Server::Connection {
  int fd = -1;
  std::mutex write_mutex;
  bool open = true;  // guarded by write_mutex
  std::thread reader;

  /// Writes a frame if the connection is still open; a closed or broken
  /// peer drops the frame (the daemon never dies for a client's exit).
  void send(const Frame& frame) {
    std::lock_guard lock(write_mutex);
    if (!open) return;
    try {
      write_frame(fd, frame);
    } catch (const Failure&) {
      // Peer went away mid-write; the reader will observe and close.
    }
  }

  /// Marks closed and closes the fd, synchronized against in-flight
  /// writers so the descriptor number is never reused under them.
  void close_fd() {
    std::lock_guard lock(write_mutex);
    if (!open) return;
    open = false;
    ::close(fd);
    fd = -1;
  }
};

Server::Server(Options options)
    : options_(std::move(options)),
      engine_(std::make_unique<Engine>(options_.engine)),
      queue_(std::make_unique<JobQueue>(options_.queue_capacity)) {}

Server::~Server() {
  request_stop();
  wait();
}

void Server::start() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0)
    throw Failure(FailureCode::kSvcIo,
                  std::string("socket: ") + std::strerror(errno));
  const int yes = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &yes, sizeof yes);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw Failure(FailureCode::kInvalidConfig,
                  "not an IPv4 listen address: " + options_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) <
          0 ||
      ::listen(listen_fd_, 16) < 0) {
    const std::string why = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw Failure(FailureCode::kSvcIo,
                  "bind " + options_.host + ":" +
                      std::to_string(options_.port) + ": " + why);
  }
  socklen_t len = sizeof addr;
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);

  std::size_t workers = options_.workers;
  if (workers == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    workers = hw == 0 ? 2 : (hw > 8 ? 8 : hw);
  }
  queue_->start(workers);
  accept_thread_ = std::thread([this] { accept_loop(); });
  if (options_.stats_interval_s > 0)
    stats_thread_ = std::thread([this] { stats_loop(); });
}

void Server::request_stop() {
  {
    std::lock_guard lock(stop_mutex_);
    if (stop_requested_) return;
    stop_requested_ = true;
  }
  stopping_.store(true);
  stop_cv_.notify_all();
}

void Server::wait() {
  {
    std::unique_lock lock(stop_mutex_);
    stop_cv_.wait(lock, [this] { return stop_requested_; });
  }
  // Teardown runs under its own lock so wait() is safe to call twice
  // (the daemon main waits, then the destructor waits again).
  std::lock_guard teardown(teardown_mutex_);
  if (accept_thread_.joinable()) accept_thread_.join();
  // Drain first: queued work still writes its responses before the
  // connections go away.
  queue_->stop(JobQueue::StopMode::kDrain);
  std::vector<std::shared_ptr<Connection>> conns;
  {
    std::lock_guard lock(conn_mutex_);
    conns.swap(connections_);
  }
  for (auto& conn : conns) {
    {
      std::lock_guard lock(conn->write_mutex);
      if (conn->open) ::shutdown(conn->fd, SHUT_RDWR);
    }
    if (conn->reader.joinable()) conn->reader.join();
  }
  if (stats_thread_.joinable()) stats_thread_.join();
}

void Server::accept_loop() {
  while (!stopping_.load()) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, 200);
    if (ready <= 0) continue;  // timeout or EINTR; re-check the stop flag
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    if (stopping_.load()) {
      ::close(fd);
      break;
    }
    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    {
      std::lock_guard lock(conn_mutex_);
      connections_.push_back(conn);
    }
    conn->reader = std::thread([this, conn] { serve_connection(conn); });
  }
  ::close(listen_fd_);
  listen_fd_ = -1;
}

void Server::serve_connection(std::shared_ptr<Connection> conn) {
  for (;;) {
    std::optional<Frame> frame;
    try {
      frame = read_frame(conn->fd);
    } catch (const Failure& failure) {
      // A framing violation poisons the stream (resynchronization is
      // impossible mid-garbage): report it if the peer still listens,
      // then drop the connection.  The daemon itself is unharmed.
      Frame poison;  // no trustworthy id to echo
      send_error(*conn, poison, failure.code(), failure.what());
      break;
    }
    if (!frame) break;  // clean close at a frame boundary

    switch (frame->type) {
      case FrameType::kPing: {
        Frame pong;
        pong.type = FrameType::kPong;
        pong.priority = frame->priority;
        pong.id = frame->id;
        conn->send(pong);
        break;
      }
      case FrameType::kStatsRequest: {
        Frame response;
        response.type = FrameType::kStatsResponse;
        response.priority = frame->priority;
        response.id = frame->id;
        response.payload = stats_body();
        conn->send(response);
        break;
      }
      case FrameType::kShutdownRequest: {
        Frame response;
        response.type = FrameType::kShutdownResponse;
        response.priority = frame->priority;
        response.id = frame->id;
        conn->send(response);
        // Signal only — teardown joins this very thread, so it must run
        // on the thread blocked in wait(), not here.
        request_stop();
        break;
      }
      case FrameType::kCompileRequest:
      case FrameType::kSimulateRequest: {
        {
          auto& slab = stat_slabs_.local();
          slab.add(slab.requests);
        }
        try {
          queue_->push(frame->priority,
                       [this, conn, request = std::move(*frame)]() mutable {
                         execute(conn, std::move(request));
                       });
        } catch (const Failure& failure) {
          {
            auto& slab = stat_slabs_.local();
            slab.add(slab.failed);
            if (failure.code() == FailureCode::kQueueFull)
              slab.add(slab.rejected_queue_full);
          }
          send_error(*conn, *frame, failure.code(), failure.what());
        }
        break;
      }
      default:
        // A response-kind frame sent *to* the daemon is protocol misuse,
        // but a recoverable one: the stream is still frame-aligned.
        send_error(*conn, *frame, FailureCode::kFrameGarbled,
                   "unexpected frame type " +
                       std::string(to_string(frame->type)) +
                       " on a server connection");
        break;
    }
  }
  conn->close_fd();
}

void Server::execute(std::shared_ptr<Connection> conn, Frame request) {
  const auto started = std::chrono::steady_clock::now();
  // `ok` is counted and the latency sample recorded *before* the
  // response bytes go out, so a client that holds its response is
  // guaranteed to see itself in a stats query; a send failure rolls the
  // ok count back into `failed`.  The whole request runs on one queue
  // worker, so every delta below lands on the same slab — and even if it
  // didn't, only the merged totals are read.
  auto& slab = stat_slabs_.local();
  bool counted_ok = false;
  bool latency_recorded = false;
  const auto finish = [&] {
    if (!latency_recorded) {
      record_latency(elapsed_ms(started));
      latency_recorded = true;
    }
  };
  try {
    Frame response;
    response.priority = request.priority;
    response.id = request.id;
    if (request.type == FrameType::kCompileRequest) {
      const auto decoded = decode_compile_request(request.payload);
      slab.add(slab.compiles);
      response.type = FrameType::kCompileResponse;
      response.payload = encode(engine_->compile(decoded));
    } else {
      const auto decoded = decode_simulate_request(request.payload);
      slab.add(slab.simulates);
      response.type = FrameType::kSimulateResponse;
      response.payload = encode(engine_->simulate(decoded));
    }
    // `reports-emitted` counts the requests that completed their engine
    // run: the point a per-request RunReport used to be emitted, so the
    // stats wire keeps its historical value without building one.
    slab.add(slab.reports_emitted);
    slab.add(slab.ok);
    counted_ok = true;
    finish();
    conn->send(response);
  } catch (const Failure& failure) {
    if (counted_ok) slab.add(slab.ok, -1);
    slab.add(slab.failed);
    finish();
    if (!counted_ok)
      send_error(*conn, request, failure.code(), failure.what());
  } catch (const std::invalid_argument& e) {
    slab.add(slab.failed);
    finish();
    send_error(*conn, request, FailureCode::kInvalidConfig, e.what());
  } catch (const std::exception& e) {
    slab.add(slab.failed);
    finish();
    send_error(*conn, request, FailureCode::kSvcInternal, e.what());
  }
  finish();
}

void Server::send_error(Connection& conn, const Frame& request,
                        util::FailureCode code, const std::string& message) {
  ErrorWire error;
  error.code = std::string(util::to_string(code));
  error.message = message;
  Frame frame;
  frame.type = FrameType::kError;
  frame.priority = request.priority;
  frame.id = request.id;
  frame.payload = encode(error);
  conn.send(frame);
}

void Server::record_latency(double ms) { stat_slabs_.record_latency(ms); }

ServerStats Server::stats() const { return stat_slabs_.totals(); }

std::string Server::stats_body() const {
  StatsWire wire;
  const ServerStats totals = stat_slabs_.totals();
  wire.requests = totals.requests;
  wire.compiles = totals.compiles;
  wire.simulates = totals.simulates;
  wire.ok = totals.ok;
  wire.failed = totals.failed;
  wire.rejected_queue_full = totals.rejected_queue_full;
  wire.reports_emitted = totals.reports_emitted;
  wire.latency_count = stat_slabs_.latency_count();
  wire.latency_p50_ms = stat_slabs_.latency_percentile(50);
  wire.latency_p99_ms = stat_slabs_.latency_percentile(99);
  wire.queue_depth = static_cast<std::int64_t>(queue_->depth());
  wire.queue_peak = static_cast<std::int64_t>(queue_->peak_depth());
  const auto cache = engine_->cache_stats();
  wire.cache_memory_hits = cache.memory_hits;
  wire.cache_disk_hits = cache.disk_hits;
  wire.cache_misses = cache.misses;
  wire.cache_insertions = cache.insertions;
  const auto hits = cache.memory_hits + cache.disk_hits;
  const auto lookups = hits + cache.misses;
  wire.cache_hit_rate =
      lookups > 0 ? static_cast<double>(hits) / static_cast<double>(lookups)
                  : 0.0;
  // Per-cache-shard hit counters; they sum to cache_memory_hits +
  // cache_disk_hits (the smoke asserts it — guards the merge path).
  for (const auto& shard : engine_->cache_shard_stats())
    wire.cache_shard_hits.push_back(shard.hits());
  return encode(wire);
}

void Server::stats_loop() {
  std::unique_lock lock(stop_mutex_);
  while (!stop_requested_) {
    stop_cv_.wait_for(lock, std::chrono::seconds(options_.stats_interval_s));
    if (stop_requested_) break;
    lock.unlock();
    print_stats_line();
    lock.lock();
  }
}

void Server::print_stats_line() const {
  const auto stats = decode_stats(stats_body());
  std::string buckets;
  {
    const auto merged = stat_slabs_.latency_histogram();
    char edge[64];
    for (std::size_t b = 0; b < merged.size(); ++b) {
      if (merged[b] == 0) continue;
      if (b == LatencyBuckets::kBuckets)
        std::snprintf(edge, sizeof edge, " lat[>%gms]=%lld",
                      LatencyBuckets::upper_edge(b - 1),
                      static_cast<long long>(merged[b]));
      else
        std::snprintf(edge, sizeof edge, " lat[<=%gms]=%lld",
                      LatencyBuckets::upper_edge(b),
                      static_cast<long long>(merged[b]));
      buckets += edge;
    }
  }
  std::fprintf(stderr,
               "[optdm_served] requests=%lld ok=%lld failed=%lld "
               "rejected=%lld queue=%lld/%lld cache-hit-rate=%.3f "
               "p50=%.2fms p99=%.2fms%s\n",
               static_cast<long long>(stats.requests),
               static_cast<long long>(stats.ok),
               static_cast<long long>(stats.failed),
               static_cast<long long>(stats.rejected_queue_full),
               static_cast<long long>(stats.queue_depth),
               static_cast<long long>(stats.queue_peak),
               stats.cache_hit_rate, stats.latency_p50_ms,
               stats.latency_p99_ms, buckets.c_str());
}

}  // namespace optdm::svc
