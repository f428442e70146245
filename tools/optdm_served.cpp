// optdm_served — the compilation service daemon.
//
// Runs the scheduling pipeline as a long-lived service: clients connect
// over TCP (svc::Client, or any tool's --connect flag), submit compile /
// simulate requests as versioned length-prefixed frames, and share one
// process-wide content-addressed schedule cache — the second client's
// warm-up is the first client's compile.  Requests ride a prioritized
// bounded queue; when it fills, new work is rejected with a structured
// `resource/queue-full` error instead of being buffered (backpressure is
// the client's signal, not the daemon's problem).
//
// The daemon prints `listening on HOST:PORT` on stdout once ready (CI
// and scripts parse it — with --listen=0 the kernel picks the port), and
// exits 0 on SIGINT/SIGTERM or a client's shutdown frame.
//
// Examples:
//   optdm_served --listen=7440 --cache-dir=/tmp/optdm-cache
//   optdm_served --listen=0 --workers=4 --stats-interval=10

#include <csignal>
#include <iostream>
#include <thread>

#include "cli.hpp"
#include "svc/client.hpp"
#include "svc/server.hpp"
#include "util/cli.hpp"

namespace {

const char* kIntro =
    "Serves compile / simulate requests over TCP with a shared schedule\n"
    "cache and admission-controlled job queue.";

// Signal handlers may only touch the flag; a watcher thread translates
// it into an orderly Server::request_stop.
volatile std::sig_atomic_t g_signaled = 0;

void on_signal(int) { g_signaled = 1; }

}  // namespace

int main(int argc, char** argv) {
  using namespace optdm;
  try {
    const util::CliArgs args(argc, argv);
    const auto flags = tools::flag_table(
        {{{"listen", "PORT", "TCP port to serve (0 = kernel-assigned)"},
          {"host", "ADDR", "IPv4 listen address (default 127.0.0.1)"},
          {"workers", "N",
           "job-queue worker threads (default: hardware threads, max 8)"},
          {"queue-capacity", "N",
           "admission bound: queued jobs beyond this are rejected\n"
           "with resource/queue-full (default 64)"},
          {"cache-dir", "DIR", "on-disk tier of the shared schedule cache"},
          {"cache-capacity", "N",
           "in-memory LRU entries per (topology, scheduler) cache\n"
           "(default 256)"},
          {"cache-shards", "N",
           "in-memory stripes per schedule cache (power of two;\n"
           "default 8, 1 = single lock)"},
          {"stats-interval", "SECS",
           "print aggregate stats to stderr every SECS seconds"},
          {"ping", "HOST:PORT", "probe a running daemon and exit"},
          {"stats", "HOST:PORT", "print a running daemon's counters and exit"},
          {"shutdown", "HOST:PORT",
           "ask a running daemon to shut down cleanly and exit"}}});
    if (args.get_bool("help")) {
      std::cout << tools::usage("optdm_served", kIntro, flags);
      return 0;
    }
    tools::check_flags(args, flags);

    // Client-control mode: drive a running daemon instead of being one.
    for (const char* mode : {"ping", "stats", "shutdown"}) {
      if (!args.has(mode)) continue;
      const auto spec = args.get(mode);
      const auto colon = spec.rfind(':');
      if (colon == std::string::npos || colon == 0 || colon + 1 == spec.size())
        throw std::runtime_error(std::string("--") + mode +
                                 " wants HOST:PORT, got '" + spec + "'");
      svc::Client::Options client_options;
      client_options.host = spec.substr(0, colon);
      client_options.port =
          static_cast<std::uint16_t>(std::stoi(spec.substr(colon + 1)));
      svc::Client client(client_options);
      if (std::string(mode) == "ping") {
        client.ping();
        std::cout << "pong from " << spec << '\n';
      } else if (std::string(mode) == "stats") {
        const auto stats = client.stats();
        std::cout << "requests " << stats.requests << '\n'
                  << "ok " << stats.ok << '\n'
                  << "failed " << stats.failed << '\n'
                  << "rejected-queue-full " << stats.rejected_queue_full
                  << '\n'
                  << "reports-emitted " << stats.reports_emitted << '\n'
                  << "queue-depth " << stats.queue_depth << '\n'
                  << "queue-peak " << stats.queue_peak << '\n'
                  << "cache-memory-hits " << stats.cache_memory_hits << '\n'
                  << "cache-disk-hits " << stats.cache_disk_hits << '\n'
                  << "cache-misses " << stats.cache_misses << '\n'
                  << "cache-hit-rate " << stats.cache_hit_rate << '\n';
        for (std::size_t i = 0; i < stats.cache_shard_hits.size(); ++i)
          std::cout << "cache-shard-hits " << i << ' '
                    << stats.cache_shard_hits[i] << '\n';
        std::cout << "latency-p50-ms " << stats.latency_p50_ms << '\n'
                  << "latency-p99-ms " << stats.latency_p99_ms << '\n';
      } else {
        client.shutdown_server();
        std::cout << "daemon at " << spec << " acknowledged shutdown\n";
      }
      return 0;
    }

    svc::Server::Options options;
    options.host = args.get("host", "127.0.0.1");
    const auto port = args.get_int("listen", 0);
    if (port < 0 || port > 65535)
      throw std::runtime_error("--listen port out of range");
    options.port = static_cast<std::uint16_t>(port);
    options.workers = static_cast<std::size_t>(args.get_int("workers", 0));
    options.queue_capacity =
        static_cast<std::size_t>(args.get_int("queue-capacity", 64));
    options.stats_interval_s = args.get_int("stats-interval", 0);
    options.engine.cache_dir = args.get("cache-dir", "");
    options.engine.cache_capacity =
        static_cast<std::size_t>(args.get_int("cache-capacity", 256));
    const auto cache_shards = args.get_int("cache-shards", 8);
    if (cache_shards < 1)
      throw std::runtime_error("--cache-shards must be positive");
    options.engine.cache_shards = static_cast<std::size_t>(cache_shards);

    svc::Server server(options);
    server.start();
    std::cout << "optdm_served: listening on " << options.host << ":"
              << server.port() << " (workers="
              << (options.workers == 0 ? std::string("auto")
                                       : std::to_string(options.workers))
              << " queue=" << options.queue_capacity << ")" << std::endl;

    std::signal(SIGINT, on_signal);
    std::signal(SIGTERM, on_signal);
    std::thread watcher([&server] {
      while (g_signaled == 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
      server.request_stop();  // idempotent; no-op after a shutdown frame
    });

    server.wait();
    // Wake the watcher if shutdown came from a client frame, not a signal.
    g_signaled = 1;
    watcher.join();

    const auto stats = server.stats();
    std::cerr << "optdm_served: served " << stats.requests << " requests ("
              << stats.ok << " ok, " << stats.failed << " failed, "
              << stats.rejected_queue_full << " rejected)\n";
    std::cout << "optdm_served: shutdown complete" << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "optdm_served: " << e.what() << '\n';
    return 1;
  }
}
