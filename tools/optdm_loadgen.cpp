// optdm_loadgen — closed-loop load generator for the optdm_served daemon.
//
// Opens N concurrent connections and drives M requests down each one,
// closed-loop (send, wait for the response, send the next), against a
// working set of distinct patterns.  Two phases:
//
//   cold  one request per distinct pattern on one connection, populating
//         the daemon's shared schedule cache (skipped by --no-warmup);
//   warm  the measured run — N connections round-robin the same pattern
//         set, so effectively every request is a cache hit.
//
// Reports wall-clock RPS and client-observed p50/p99 per phase, plus a
// cross-connection byte-identity check: every connection's response for
// the same pattern must carry identical schedule bytes (the service's
// core determinism contract; the loadgen_smoke ctest gates on it).
// All output is `key value` lines on stdout — script-friendly.
//
// Examples:
//   optdm_loadgen --connect=127.0.0.1:7440 --connections=8 --requests=100
//   optdm_loadgen --connect=127.0.0.1:7440 --mix=mixed --patterns=8

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <exception>
#include <iostream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cli.hpp"
#include "core/request.hpp"
#include "svc/client.hpp"
#include "topo/factory.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"

namespace {

const char* kIntro =
    "Closed-loop multi-connection load generator for optdm_served:\n"
    "drives compile / simulate traffic over N connections and reports\n"
    "RPS, client-side p50/p99, and cross-connection byte-identity.";

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// The working set: `count` distinct shift permutations on `nodes` nodes
/// (pattern i sends every src to (src + i + 1) mod nodes).  Distinct by
/// construction, cheap to compile, and deterministic.
std::vector<optdm::core::RequestSet> make_patterns(int nodes, int count) {
  std::vector<optdm::core::RequestSet> patterns;
  patterns.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    optdm::core::RequestSet pattern;
    const int shift = 1 + (i % (nodes - 1));  // never the identity
    for (int src = 0; src < nodes; ++src)
      pattern.push_back({src, (src + shift) % nodes});
    patterns.push_back(std::move(pattern));
  }
  return patterns;
}

struct PhaseResult {
  std::int64_t requests = 0;
  std::int64_t errors = 0;
  double seconds = 0;
  std::vector<double> latencies_ms;

  double rps() const {
    return seconds > 0 ? static_cast<double>(requests) / seconds : 0.0;
  }
};

void print_phase(const std::string& name, const PhaseResult& result) {
  std::cout << name << "-requests " << result.requests << '\n'
            << name << "-errors " << result.errors << '\n'
            << name << "-seconds " << result.seconds << '\n'
            << name << "-rps " << result.rps() << '\n';
  if (!result.latencies_ms.empty())
    std::cout << name << "-p50-ms "
              << optdm::util::percentile(result.latencies_ms, 50) << '\n'
              << name << "-p99-ms "
              << optdm::util::percentile(result.latencies_ms, 99) << '\n';
}

}  // namespace

int main(int argc, char** argv) {
  using namespace optdm;
  try {
    const util::CliArgs args(argc, argv);
    const auto flags = tools::flag_table(
        {tools::service_flags(),
         {{"connections", "N", "concurrent client connections (default 4)"},
          {"requests", "M", "requests per connection in the warm phase\n"
                            "(default 50)"},
          {"patterns", "K", "distinct patterns in the working set (default 4)"},
          {"topology", "SPEC", "substrate (default torus:8x8)"},
          {"algorithm", "NAME", "scheduler registry name (default combined)"},
          {"mix", "KIND", "compile|mixed — mixed sends every 8th request\n"
                          "as a simulate (default compile)"},
          {"no-warmup", "", "skip the cold phase (measure a cold cache)"}}});
    if (args.get_bool("help")) {
      std::cout << tools::usage("optdm_loadgen", kIntro, flags);
      return 0;
    }
    tools::check_flags(args, flags);
    if (!args.has("connect"))
      throw std::runtime_error("--connect=HOST:PORT is required");

    const int connections = static_cast<int>(args.get_int("connections", 4));
    const int requests = static_cast<int>(args.get_int("requests", 50));
    const int pattern_count = static_cast<int>(args.get_int("patterns", 4));
    if (connections < 1 || requests < 1 || pattern_count < 1)
      throw std::runtime_error(
          "--connections, --requests, --patterns must be positive");
    const std::string topology = args.get("topology", "torus:8x8");
    const std::string scheduler = tools::algorithm(args);
    const std::string mix = args.get("mix", "compile");
    if (mix != "compile" && mix != "mixed")
      throw std::runtime_error("--mix wants compile|mixed, got '" + mix + "'");

    const auto net = topo::make_network(topology);
    const auto patterns = make_patterns(net->node_count(), pattern_count);

    auto make_request = [&](int p) {
      svc::CompileRequest request;
      request.topology = topology;
      request.scheduler = scheduler;
      request.pattern = patterns[static_cast<std::size_t>(p)];
      return request;
    };

    // Each thread builds its own Client (one TCP connection each); the
    // service tools' make_service() would share one, which serializes on
    // the socket and measures the client, not the daemon.
    auto connect = [&] {
      // Reuse the --connect parsing (and its errors) from the shared
      // helper by asking it for a client-transport service.
      return tools::make_service(args);
    };

    // --- cold phase: populate the shared cache, one request per pattern.
    PhaseResult cold;
    if (!args.get_bool("no-warmup")) {
      auto service = connect();
      const auto started = Clock::now();
      for (int p = 0; p < pattern_count; ++p) {
        const auto sent = Clock::now();
        try {
          (void)service->compile(make_request(p));
        } catch (const std::exception&) {
          ++cold.errors;
        }
        cold.latencies_ms.push_back(ms_between(sent, Clock::now()));
        ++cold.requests;
      }
      cold.seconds = ms_between(started, Clock::now()) / 1000.0;
    }

    // --- warm phase: N closed-loop connections over the same patterns.
    PhaseResult warm;
    std::mutex merge_mutex;
    // Connection c's response bytes for pattern 0 — must be identical
    // across connections (and transports: the daemon promises the local
    // result).
    std::vector<std::string> witness(static_cast<std::size_t>(connections));
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(connections));
    const auto warm_started = Clock::now();
    for (int c = 0; c < connections; ++c) {
      threads.emplace_back([&, c] {
        PhaseResult local;
        try {
          auto service = connect();
          for (int r = 0; r < requests; ++r) {
            const int p = (c + r) % pattern_count;
            const bool simulate = mix == "mixed" && r % 8 == 7;
            const auto sent = Clock::now();
            try {
              if (simulate) {
                svc::SimulateRequest sim;
                sim.topology = topology;
                sim.scheduler = scheduler;
                sim.pattern = patterns[static_cast<std::size_t>(p)];
                sim.dynamic_ks = {2};
                (void)service->simulate(sim);
              } else {
                const auto response = service->compile(make_request(p));
                if (p == 0 && witness[static_cast<std::size_t>(c)].empty())
                  witness[static_cast<std::size_t>(c)] =
                      response.schedule_text;
              }
            } catch (const std::exception&) {
              ++local.errors;
            }
            local.latencies_ms.push_back(ms_between(sent, Clock::now()));
            ++local.requests;
          }
        } catch (const std::exception&) {
          // Connection setup failed; every request it would have sent is
          // an error so the totals still add up.
          local.errors += requests - local.requests;
          local.requests = requests;
        }
        std::lock_guard lock(merge_mutex);
        warm.requests += local.requests;
        warm.errors += local.errors;
        warm.latencies_ms.insert(warm.latencies_ms.end(),
                                 local.latencies_ms.begin(),
                                 local.latencies_ms.end());
      });
    }
    for (auto& thread : threads) thread.join();
    warm.seconds = ms_between(warm_started, Clock::now()) / 1000.0;

    // --- cross-connection byte-identity over the witness responses.
    bool identical = true;
    const std::string* reference = nullptr;
    for (const auto& bytes : witness) {
      if (bytes.empty()) continue;  // connection never saw pattern 0
      if (!reference) {
        reference = &bytes;
      } else if (bytes != *reference) {
        identical = false;
      }
    }

    std::cout << "connections " << connections << '\n'
              << "requests-per-connection " << requests << '\n'
              << "patterns " << pattern_count << '\n'
              << "mix " << mix << '\n';
    if (!args.get_bool("no-warmup")) print_phase("cold", cold);
    print_phase("warm", warm);
    std::cout << "schedule-bytes-identical " << (identical ? 1 : 0) << '\n'
              << "errors " << (cold.errors + warm.errors) << '\n';
    return (cold.errors + warm.errors) == 0 && identical ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "optdm_loadgen: " << e.what() << '\n';
    return 1;
  }
}
