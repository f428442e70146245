// compile_cold: uncached in-process compiles (svc::Engine::compile with
// use_cache=false) over a seeded ladder that spans routing/AAPC-bound to
// graph/coloring-bound patterns, the largest carrying the memory wall.

#include <iostream>
#include <memory>

#include "aapc/torus_aapc.hpp"
#include "bench.hpp"
#include "patterns/named.hpp"
#include "redist/block_cyclic.hpp"
#include "redist/redistribution.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace optdm;

namespace {

struct Ladder {
  std::vector<std::unique_ptr<topo::TorusNetwork>> nets;
  /// Every pattern of the ladder, in compile order.
  std::vector<Probe> patterns;
  /// The rung each pattern belongs to (freq_8x8 holds four patterns).
  std::vector<std::size_t> rung_of;
  std::vector<std::string> rungs;

  const topo::TorusNetwork& net(int side) {
    for (const auto& net : nets)
      if (net->cols() == side) return *net;
    nets.push_back(std::make_unique<topo::TorusNetwork>(side, side));
    return *nets.back();
  }
  void add(const std::string& rung, std::string name, int side,
           core::RequestSet pattern) {
    if (rungs.empty() || rungs.back() != rung) rungs.push_back(rung);
    rung_of.push_back(rungs.size() - 1);
    const auto& torus = net(side);
    patterns.push_back({std::move(name), &torus,
                        "torus:" + std::to_string(side) + "x" + std::to_string(side),
                        std::move(pattern)});
  }
  void add(const std::string& rung, int side, core::RequestSet pattern) {
    add(rung, rung, side, std::move(pattern));
  }
};

Ladder make_ladder(std::uint64_t seed, bool tiny) {
  Ladder ladder;
  Rng rng(seed * 0xd1b54a32d192ed03ULL + 3);
  if (tiny) {
    ladder.add("r100_8x8", 8, random_pairs(64, 100, rng));
    ladder.add("freq_8x8", "freq_8x8.ring", 8, patterns::ring(64));
    ladder.add("freq_8x8", "freq_8x8.hypercube", 8, patterns::hypercube(64));
    ladder.add("a2a_4x4", 4, patterns::all_to_all(16));
    return ladder;
  }
  ladder.add("r1000_8x8", 8, random_pairs(64, 1000, rng));
  ladder.add("r4000_8x8", 8, random_pairs(64, 4000, rng));
  const auto& net8 = ladder.net(8);
  ladder.add("freq_8x8", "freq_8x8.ring", 8, patterns::ring(64));
  ladder.add("freq_8x8", "freq_8x8.nearest", 8, patterns::nearest_neighbor(net8));
  ladder.add("freq_8x8", "freq_8x8.hypercube", 8, patterns::hypercube(64));
  ladder.add("freq_8x8", "freq_8x8.shuffle", 8, patterns::shuffle_exchange(64));
  // The paper's redistribution generator (Section 3.4): two random
  // block-cyclic distributions of a 64^3 array over 64 PEs, drawn until
  // the plan falls in the 1000-2000 connection bucket of Table 2, so the
  // rung's size does not swing with the seed.
  util::Rng redist_rng(rng.next());
  core::RequestSet redist;
  while (redist.size() < 1000 || redist.size() >= 2000) {
    const auto from = redist::random_distribution({64, 64, 64}, 64, redist_rng);
    const auto to = redist::random_distribution({64, 64, 64}, 64, redist_rng);
    redist = redist::plan_redistribution(from, to).pattern();
  }
  ladder.add("redist_8x8", 8, std::move(redist));
  ladder.add("a2a_8x8", 8, patterns::all_to_all(64));
  ladder.add("a2a_12x12", 12, patterns::all_to_all(144));
  ladder.add("r16000_16x16", 16, random_pairs(256, 16000, rng));
  return ladder;
}

struct Window {
  double compile_s = 0;
  std::int64_t connections = 0;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  /// Each rung's compile time in every pass.
  std::vector<std::vector<double>> call_ms;
  /// Connections compiled per second of compile time, per pass.
  std::vector<double> pass_rates;
};

}  // namespace

RunResult run_compile_cold(const Config& config) {
  RunResult result;
  // Set-up: inputs, the engine, and the AAPC decomposition of every
  // substrate (its ring schedules are built once per process).
  const auto setup_started = Clock::now();
  auto ladder = make_ladder(config.seed, config.tiny);
  double aapc_ms = 0;
  for (const auto& net : ladder.nets) {
    const auto started = Clock::now();
    const aapc::TorusAapc aapc(*net);
    aapc_ms += ms_since(started);
  }
  svc::Engine engine;
  result.setup_s = seconds_since(setup_started);
  if (config.setup_only) return result;

  // Every pass must reproduce the first pass's bytes; the first pass is
  // checked in full.
  std::vector<svc::CompileResponse> first;
  std::int64_t slots = 0;
  auto pass = [&](Window& window, Tracer* tracer) {
    std::vector<double> rung_ms(ladder.rungs.size(), 0.0);
    std::int64_t pass_connections = 0;
    for (std::size_t r = 0; r < ladder.patterns.size(); ++r) {
      const auto& probe = ladder.patterns[r];
      svc::CompileRequest request;
      request.topology = probe.topology;
      request.pattern = probe.pattern;
      request.use_cache = false;
      ++window.attempted;
      try {
        const auto started = Clock::now();
        const auto response =
            tracer ? tracer->span("engine.compile",
                                  [&] { return engine.compile(request); })
                   : engine.compile(request);
        rung_ms[ladder.rung_of[r]] += ms_since(started);
        pass_connections += static_cast<std::int64_t>(probe.pattern.size());
        if (first.size() == r) {
          first.push_back(response);
          slots += response.degree;
          if (const auto err = check_schedule(*probe.net, probe.pattern,
                                              response.schedule_text,
                                              response.degree);
              !err.empty()) {
            std::cerr << "perfbench: " << probe.name << ": " << err << '\n';
            ++window.failed;
          }
        } else if (!same_result(response, first[r])) {
          ++window.failed;
        }
      } catch (const std::exception& e) {
        std::cerr << "perfbench: " << probe.name << ": " << e.what() << '\n';
        ++window.failed;
        if (first.size() == r) first.emplace_back();
      }
    }
    window.call_ms.resize(rung_ms.size());
    double pass_s = 0;
    for (std::size_t i = 0; i < rung_ms.size(); ++i) {
      window.call_ms[i].push_back(rung_ms[i]);
      pass_s += rung_ms[i] / 1000.0;
    }
    window.compile_s += pass_s;
    window.connections += pass_connections;
    window.pass_rates.push_back(static_cast<double>(pass_connections) / pass_s);
  };
  // Peak memory is read after the first pass: later passes repeat the same
  // work, and the allocator's per-thread arenas then raise the high-water
  // mark with the number of passes, that is with speed.
  double peak_mb = 0;
  auto run = [&](double seconds, Tracer* tracer) {
    Window window;
    const auto started = Clock::now();
    do {
      pass(window, tracer);
      if (peak_mb == 0) peak_mb = peak_rss_mb();
    } while (seconds_since(started) < seconds);
    return window;
  };

  Window untraced;
  Window traced;
  Tracer tracer;
  if (config.trace) {
    untraced = run(config.seconds / 2, nullptr);
    traced = run(config.seconds / 2, &tracer);
  } else {
    untraced = run(config.seconds, nullptr);
  }
  result.attempted = untraced.attempted + traced.attempted;
  result.failed = untraced.failed + traced.failed;

  auto& m = result.metrics;
  if (!config.trace) {
    const auto stats = pass_stats(untraced.call_ms, untraced.pass_rates);
    m["ops_per_s"] = {stats.ops_per_s, "1/s"};
    m["p50_ms"] = {stats.p50_ms, "ms"};
    m["p99_ms"] = {stats.p99_ms, "ms"};
    m["peak_rss_mb"] = {peak_mb, "MB"};
    report_slots(config, slots, result);
    std::cerr << "perfbench: " << untraced.pass_rates.size() << " passes, "
              << untraced.compile_s << " s compile time\n";
    return result;
  }

  const double untraced_rate =
      static_cast<double>(untraced.connections) / untraced.compile_s;
  const double traced_rate =
      static_cast<double>(traced.connections) / traced.compile_s;
  m["trace.overhead_pct"] = {(untraced_rate - traced_rate) / untraced_rate * 100.0, "%"};
  m["aapc.construct_ms"] = {aapc_ms, "ms"};
  probe_layers(ladder.patterns, tracer, m);
  probe_daemon(config, ladder.patterns, m);
  if (!config.trace_out.empty()) tracer.write_jsonl(config.trace_out);
  return result;
}

}  // namespace perfbench
