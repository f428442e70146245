// serve_warm / serve_mixed: optdm_served as a child process at
// --workers=2, driven closed-loop over two connections from this process
// (the daemon's callers each wait for their reply).

#include <iostream>
#include <latch>
#include <map>
#include <memory>
#include <thread>

#include "aapc/torus_aapc.hpp"
#include "bench.hpp"
#include "patterns/named.hpp"
#include "svc/client.hpp"

namespace perfbench {

using namespace optdm;

namespace {

constexpr int kConnections = 2;
constexpr int kWorkers = 2;

/// serve_warm: the Table 3 frequent patterns (all-to-all excluded: it is a
/// compile_cold rung) plus twelve torus shift permutations, 16 in all, each
/// in a seeded request order (order is part of a compilation's identity, so
/// the seed changes every cache key while the working set's shape stays).
/// serve_mixed: 192 seeded random derangements of the 64 nodes, about
/// three quarters of the daemon's default 256-entry cache.
std::vector<core::RequestSet> make_patterns(const topo::TorusNetwork& net,
                                            bool mixed, bool tiny,
                                            std::uint64_t seed) {
  Rng rng(seed * 0x2545f4914f6cdd1dULL + (mixed ? 2 : 1));
  std::vector<core::RequestSet> patterns;
  if (mixed) {
    for (int i = 0; i < (tiny ? 12 : 192); ++i)
      patterns.push_back(random_derangement(net.node_count(), rng));
    return patterns;
  }
  patterns = {patterns::ring(64), patterns::nearest_neighbor(net),
              patterns::hypercube(64), patterns::shuffle_exchange(64)};
  for (int dx = 1; dx <= (tiny ? 1 : 4); ++dx)
    for (int dy = 0; dy < 3; ++dy) patterns.push_back(torus_shift(net, dx, dy));
  for (auto& pattern : patterns) rng.shuffle(pattern);
  return patterns;
}

svc::CompileRequest compile_request(const core::RequestSet& pattern) {
  svc::CompileRequest request;
  request.pattern = pattern;
  return request;
}

svc::SimulateRequest simulate_request(const core::RequestSet& pattern) {
  svc::SimulateRequest request;
  request.pattern = pattern;
  request.dynamic_ks = {2};
  return request;
}

/// What one closed-loop window saw.
struct Window {
  double seconds = 0;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<double> latency_ms;
  std::vector<double> compile_latency_ms;
  /// Completion time of each request, seconds into the window.
  std::vector<double> done_s;
  /// Simulate responses per pattern: the first response's bytes and how
  /// many responses were seen; every later one must carry the same bytes.
  std::map<int, std::pair<std::string, std::int64_t>> simulated;
  Tracer tracer;
};

/// Throughput and latency percentiles of one-second slices of a window
/// (requests by completion time), each taken from the quietest tenth of
/// the slices: interference on the shared host arrives in phases of
/// seconds and stretches the slow tail, while a slower request path slows
/// every slice.  One second holds well over a thousand requests, so each
/// slice's p99 has ten samples beyond it.
struct Sliced {
  double ops_per_s = 0;
  double p50_ms = 0;
  double p99_ms = 0;
};

constexpr double kSliceS = 1.0;

Sliced sliced(const Window& window) {
  const auto slices = std::max<std::size_t>(
      1, static_cast<std::size_t>(window.seconds / kSliceS));
  std::vector<std::vector<double>> latency(slices);
  for (std::size_t i = 0; i < window.done_s.size(); ++i) {
    const auto slice = static_cast<std::size_t>(window.done_s[i] / kSliceS);
    if (slice < slices) latency[slice].push_back(window.latency_ms[i]);
  }
  std::vector<double> rps, p50, p99;
  for (const auto& sample : latency) {
    rps.push_back(static_cast<double>(sample.size()) / kSliceS);
    p50.push_back(percentile(sample, 50));
    p99.push_back(percentile(sample, 99));
  }
  return {percentile(rps, 90), percentile(p50, 10), percentile(p99, 10)};
}

class Driver {
 public:
  Driver(const svc::Client::Options& endpoint,
         const std::vector<core::RequestSet>& patterns,
         const std::vector<svc::CompileResponse>& expected, bool mixed,
         std::uint64_t seed)
      : endpoint_(endpoint),
        patterns_(patterns),
        expected_(expected),
        mixed_(mixed) {
    for (int c = 0; c < kConnections; ++c) {
      clients_.push_back(std::make_unique<svc::Client>(endpoint_));
      const std::uint64_t stream = 101 + static_cast<std::uint64_t>(c);
      rngs_.emplace_back(seed * 0x9e3779b97f4a7c15ULL + stream);
      issued_.push_back(0);
    }
  }

  /// Runs both connections closed-loop for `seconds`; spans are kept only
  /// when `traced`.
  Window run(double seconds, bool traced) {
    std::vector<Window> parts(kConnections);
    std::latch start(kConnections + 1);
    Clock::time_point began;
    std::vector<std::thread> threads;
    for (int c = 0; c < kConnections; ++c)
      threads.emplace_back([&, c] {
        start.arrive_and_wait();
        const auto deadline =
            began + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(seconds));
        auto& part = parts[static_cast<std::size_t>(c)];
        while (Clock::now() < deadline) {
          one_request(c, part, traced);
          part.done_s.push_back(seconds_since(began));
        }
        part.seconds = seconds_since(began);
      });
    began = Clock::now();
    start.arrive_and_wait();
    for (auto& thread : threads) thread.join();

    Window total;
    for (auto& part : parts) {
      total.seconds = std::max(total.seconds, part.seconds);
      total.attempted += part.attempted;
      total.failed += part.failed;
      total.latency_ms.insert(total.latency_ms.end(), part.latency_ms.begin(),
                              part.latency_ms.end());
      total.compile_latency_ms.insert(total.compile_latency_ms.end(),
                                      part.compile_latency_ms.begin(),
                                      part.compile_latency_ms.end());
      total.done_s.insert(total.done_s.end(), part.done_s.begin(),
                          part.done_s.end());
      for (auto& [p, seen] : part.simulated) {
        auto [it, fresh] = total.simulated.try_emplace(p, seen);
        if (fresh) continue;
        if (it->second.first != seen.first) total.failed += seen.second;
        it->second.second += seen.second;
      }
      total.tracer.absorb(part.tracer);
    }
    return total;
  }

 private:
  void one_request(int c, Window& part, bool traced) {
    auto& client = *clients_[static_cast<std::size_t>(c)];
    auto& rng = rngs_[static_cast<std::size_t>(c)];
    const auto index = issued_[static_cast<std::size_t>(c)]++;
    const int p = static_cast<int>(rng.below(patterns_.size()));
    const auto& pattern = patterns_[static_cast<std::size_t>(p)];
    const bool simulate = mixed_ && index % 8 == 7;
    ++part.attempted;
    const auto sent = Clock::now();
    try {
      if (simulate) {
        auto response =
            traced ? part.tracer.span("client.simulate",
                                      [&] { return client.simulate(simulate_request(pattern)); })
                   : client.simulate(simulate_request(pattern));
        part.latency_ms.push_back(ms_since(sent));
        auto bytes = result_bytes(std::move(response));
        auto [it, fresh] = part.simulated.try_emplace(p, bytes, 0);
        ++it->second.second;
        if (!fresh && it->second.first != bytes) ++part.failed;
      } else {
        const auto response =
            traced ? part.tracer.span("client.compile",
                                      [&] { return client.compile(compile_request(pattern)); })
                   : client.compile(compile_request(pattern));
        const double ms = ms_since(sent);
        part.latency_ms.push_back(ms);
        part.compile_latency_ms.push_back(ms);
        if (!same_result(response, expected_[static_cast<std::size_t>(p)]))
          ++part.failed;
      }
    } catch (const std::exception&) {
      ++part.failed;
      // A broken stream would fail every later request: reconnect.
      try {
        clients_[static_cast<std::size_t>(c)] =
            std::make_unique<svc::Client>(endpoint_);
      } catch (const std::exception&) {
      }
    }
  }

  svc::Client::Options endpoint_;
  const std::vector<core::RequestSet>& patterns_;
  const std::vector<svc::CompileResponse>& expected_;
  bool mixed_;
  std::vector<std::unique_ptr<svc::Client>> clients_;
  std::vector<Rng> rngs_;
  std::vector<std::int64_t> issued_;
};

}  // namespace

void daemon_metrics(const svc::StatsWire& stats, Metrics& out) {
  out["svc.server_p50_us"] = {stats.latency_p50_ms * 1000.0, "us"};
  out["svc.server_p99_us"] = {stats.latency_p99_ms * 1000.0, "us"};
  out["svc.queue_peak"] = {static_cast<double>(stats.queue_peak), "count"};
  out["apps.cache_hit_rate"] = {stats.cache_hit_rate, "ratio"};
  std::int64_t unused = 0;
  for (const auto hits : stats.cache_shard_hits) unused += hits == 0 ? 1 : 0;
  out["apps.cache_stripes_unused"] = {static_cast<double>(unused), "count"};
}

RunResult run_serve(const Config& config, bool mixed) {
  const topo::TorusNetwork net(8, 8);
  const auto patterns = make_patterns(net, mixed, config.tiny, config.seed);
  RunResult result;
  // This process's first AAPC decomposition (ring schedules are built once
  // per process); the daemon pays the same inside its first request.
  const auto aapc_started = Clock::now();
  { const aapc::TorusAapc aapc(net); }
  const double aapc_ms = ms_since(aapc_started);

  // Oracle: the in-process engine's answer to every request, each checked
  // once in full; the daemon must return the same bytes.  A set-up-only run
  // checks nothing and skips it.
  std::vector<svc::CompileResponse> expected;
  std::int64_t slots = 0;
  if (!config.setup_only) {
    svc::Engine engine;
    for (const auto& pattern : patterns) {
      expected.push_back(engine.compile(compile_request(pattern)));
      const auto& response = expected.back();
      if (const auto err = check_schedule(net, pattern, response.schedule_text,
                                          response.degree);
          !err.empty())
        result.problems.push_back("in-process schedule: " + err);
      slots += response.degree;
    }
  }

  // Set-up: daemon spawn to ready, plus one request per pattern to fill
  // its cache.
  const auto setup_started = Clock::now();
  auto daemon = std::make_unique<Daemon>(config.served, kWorkers);
  {
    svc::Client client(daemon->client_options());
    for (std::size_t p = 0; p < patterns.size(); ++p) {
      const auto response = client.compile(compile_request(patterns[p]));
      if (!config.setup_only && !same_result(response, expected[p]))
        result.problems.push_back("pre-warm response differs from in-process");
    }
  }
  result.setup_s = seconds_since(setup_started);
  if (config.setup_only) return result;

  Driver driver(daemon->client_options(), patterns, expected, mixed,
                config.seed);
  // Warm-up outside the window: new connections and cold daemon threads
  // made the first measured run an outlier.
  Window warm = driver.run(std::min(1.0, config.seconds / 10), false);

  Window untraced;
  Window traced;
  if (config.trace) {
    untraced = driver.run(config.seconds / 2, false);
    traced = driver.run(config.seconds / 2, true);
  } else {
    untraced = driver.run(config.seconds, false);
  }
  const Window& main = config.trace ? traced : untraced;

  // Simulate responses against the in-process engine, after the window.
  {
    svc::Engine engine;
    for (const auto* window : {&warm, &untraced, &traced})
      for (const auto& [p, seen] : window->simulated)
        if (result_bytes(engine.simulate(simulate_request(
                patterns[static_cast<std::size_t>(p)]))) != seen.first)
          result.failed += seen.second;
  }

  for (const auto* window : {&warm, &untraced, &traced}) {
    result.attempted += window->attempted;
    result.failed += window->failed;
  }
  const auto ok = untraced.attempted - untraced.failed;
  std::cerr << "perfbench: " << untraced.latency_ms.size()
            << " latency samples over " << untraced.seconds << " s\n";

  svc::Client stats_client(daemon->client_options());
  const auto stats = stats_client.stats();
  const double rss = peak_rss_mb(daemon->pid());
  if (!daemon->stop()) result.problems.push_back("daemon did not stop cleanly");

  if (!config.trace) {
    const auto stats_sliced = sliced(untraced);
    std::cerr << "perfbench: whole window " << static_cast<double>(ok) / untraced.seconds
              << " rps, p50 " << percentile(untraced.latency_ms, 50) << " ms, p99 "
              << percentile(untraced.latency_ms, 99) << " ms\n";
    result.metrics["ops_per_s"] = {stats_sliced.ops_per_s, "1/s"};
    result.metrics["p50_ms"] = {stats_sliced.p50_ms, "ms"};
    result.metrics["p99_ms"] = {stats_sliced.p99_ms, "ms"};
    result.metrics["peak_rss_mb"] = {rss, "MB"};
    report_slots(config, slots, result);
    return result;
  }

  auto& m = result.metrics;
  const double untraced_rps = static_cast<double>(untraced.attempted) / untraced.seconds;
  const double traced_rps = static_cast<double>(main.attempted) / main.seconds;
  m["trace.overhead_pct"] = {(untraced_rps - traced_rps) / untraced_rps * 100.0, "%"};
  m["svc.client_compile_p99_ms"] = {percentile(main.compile_latency_ms, 99), "ms"};
  daemon_metrics(stats, m);
  m["aapc.construct_ms"] = {aapc_ms, "ms"};
  std::vector<Probe> probes;
  for (std::size_t p = 0; p < std::min<std::size_t>(patterns.size(), 16); ++p)
    probes.push_back({"p" + std::to_string(p), &net, "torus:8x8", patterns[p]});
  Tracer tracer;
  tracer.absorb(main.tracer);
  probe_layers(probes, tracer, m);
  if (!config.trace_out.empty()) tracer.write_jsonl(config.trace_out);
  return result;
}

}  // namespace perfbench
