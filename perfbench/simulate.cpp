// simulate_scale: the dynamic-reservation event loop on the 32x32 torus at
// K=8 over seeded messages, plus the paper's Table 5 cells (GS, TSCF, P3M
// on 8x8, compiled and dynamic at K in {1, 2, 5, 10}).

#include <iostream>
#include <sstream>

#include "apps/compiler.hpp"
#include "apps/workloads.hpp"
#include "bench.hpp"
#include "io/pattern_io.hpp"
#include "sim/compiled.hpp"
#include "sim/dynamic.hpp"

namespace perfbench {

using namespace optdm;

namespace {

std::vector<sim::Message> random_messages(int nodes, int count, Rng& rng) {
  std::vector<sim::Message> messages;
  messages.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    const auto src = static_cast<int>(rng.below(static_cast<std::uint64_t>(nodes)));
    auto dst = static_cast<int>(rng.below(static_cast<std::uint64_t>(nodes - 1)));
    if (dst >= src) ++dst;
    messages.push_back({{src, dst}, 1});
  }
  return messages;
}

struct Cell {
  const apps::CommPhase* phase;
  core::Schedule schedule;
};

struct Window {
  double sim_s = 0;
  std::int64_t messages = 0;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  /// Each simulator call's time in every pass, and messages simulated
  /// per second of simulator time per pass.
  std::vector<std::vector<double>> call_ms;
  std::vector<double> pass_rates;
  std::vector<std::int64_t> pass_slots;
  // Traced-run accounting of the dynamic engine.
  double dynamic_s = 0;
  std::int64_t dynamic_messages = 0;
  std::int64_t retries = 0;
};

}  // namespace

RunResult run_simulate_scale(const Config& config) {
  RunResult result;
  // Set-up: inputs, and the off-line compile of every Table 5 phase (the
  // compiled regime's schedules exist before the program runs).
  const auto setup_started = Clock::now();
  Rng rng(config.seed * 0xa0761d6478bd642fULL + 4);
  const topo::TorusNetwork big(32, 32);
  const topo::TorusNetwork net(8, 8);
  const auto messages =
      random_messages(big.node_count(), config.tiny ? 2000 : 100000, rng);
  std::vector<apps::CommPhase> phases;
  phases.push_back(apps::gs_phase(64, 64));
  phases.push_back(apps::tscf_phase(64));
  if (!config.tiny) {
    for (const int grid : {128, 256}) phases.push_back(apps::gs_phase(grid, 64));
    for (const int mesh : {32, 64})
      for (auto& phase : apps::p3m_phases(mesh)) phases.push_back(std::move(phase));
  }
  const auto aapc_started = Clock::now();
  const apps::CommCompiler compiler(net);
  const double aapc_ms = ms_since(aapc_started);
  std::vector<Cell> cells;
  for (const auto& phase : phases) {
    const auto pattern = phase.pattern();
    auto compiled = compiler.compile(pattern);
    std::ostringstream text;
    io::write_schedule(text, net, compiled.schedule);
    if (const auto err = check_schedule(net, pattern, text.str(),
                                        compiled.schedule.degree());
        !err.empty())
      result.problems.push_back(phase.name + ": " + err);
    cells.push_back({&phase, std::move(compiled.schedule)});
  }
  result.setup_s = seconds_since(setup_started);
  if (config.setup_only) return result;

  // Table 5's protocol parameters (bench/table5_compiled_vs_dynamic).
  sim::DynamicParams table5;
  table5.ctrl_hop_slots = 2;
  table5.ctrl_local_slots = 2;
  table5.backoff_slots = 8;
  table5.seed = 27;

  // Position of the current call within its pass.
  std::size_t call = 0;
  auto timed = [&](Window& window, Tracer* tracer, const char* name,
                   std::size_t count, auto&& fn) {
    ++window.attempted;
    const auto started = Clock::now();
    auto out = tracer ? tracer->span(name, fn) : fn();
    const double ms = ms_since(started);
    if (window.call_ms.size() <= call) window.call_ms.emplace_back();
    window.call_ms[call++].push_back(ms);
    window.sim_s += ms / 1000.0;
    window.messages += static_cast<std::int64_t>(count);
    return out;
  };
  auto dynamic = [&](Window& window, Tracer* tracer,
                     const topo::TorusNetwork& on,
                     const std::vector<sim::Message>& msgs,
                     const sim::DynamicParams& params) {
    const auto started = Clock::now();
    const auto out = timed(window, tracer, "sim.dynamic", msgs.size(), [&] {
      return sim::simulate_dynamic(on, msgs, params);
    });
    window.dynamic_s += seconds_since(started);
    window.dynamic_messages += static_cast<std::int64_t>(msgs.size());
    window.retries += out.total_retries;
    if (!out.completed) ++window.failed;
    return out.total_slots;
  };
  auto pass = [&](Window& window, Tracer* tracer) {
    call = 0;
    const double sim_s = window.sim_s;
    const auto messages_before = window.messages;
    std::int64_t slots = 0;
    sim::DynamicParams scale;
    scale.multiplexing_degree = 8;
    slots += dynamic(window, tracer, big, messages, scale);
    for (const auto& cell : cells) {
      const auto& msgs = cell.phase->messages;
      const auto compiled =
          timed(window, tracer, "sim.compiled", msgs.size(), [&] {
            return sim::simulate_compiled(cell.schedule, msgs);
          }).total_slots;
      slots += compiled;
      std::int64_t best_dynamic = -1;
      for (const int k : {1, 2, 5, 10}) {
        auto params = table5;
        params.multiplexing_degree = k;
        const auto total = dynamic(window, tracer, net, msgs, params);
        slots += total;
        if (best_dynamic < 0 || total < best_dynamic) best_dynamic = total;
      }
      // The paper's claim (Table 5): compiled communication beats the best
      // fixed-K dynamic run on every pattern.
      if (compiled >= best_dynamic) ++window.failed;
    }
    window.pass_slots.push_back(slots);
    window.pass_rates.push_back(
        static_cast<double>(window.messages - messages_before) /
        (window.sim_s - sim_s));
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
  const auto slots = untraced.pass_slots.front();
  for (const auto* window : {&untraced, &traced})
    for (const auto pass_slots : window->pass_slots)
      if (pass_slots != slots)
        result.problems.push_back("simulated slots differ between passes");

  auto& m = result.metrics;
  if (!config.trace) {
    const auto stats = pass_stats(untraced.call_ms, untraced.pass_rates);
    m["ops_per_s"] = {stats.ops_per_s, "1/s"};
    m["p50_ms"] = {stats.p50_ms, "ms"};
    m["p99_ms"] = {stats.p99_ms, "ms"};
    m["peak_rss_mb"] = {peak_mb, "MB"};
    report_slots(config, slots, result);
    std::cerr << "perfbench: " << untraced.pass_slots.size() << " passes, "
              << untraced.call_ms.size() << " simulator calls each\n";
    return result;
  }

  const double untraced_rate = static_cast<double>(untraced.messages) / untraced.sim_s;
  const double traced_rate = static_cast<double>(traced.messages) / traced.sim_s;
  m["trace.overhead_pct"] = {(untraced_rate - traced_rate) / untraced_rate * 100.0, "%"};
  m["aapc.construct_ms"] = {aapc_ms, "ms"};
  // The simulator layer of this workload is the measured run itself; the
  // probes below would otherwise report it on the compile probes.
  const double dynamic_rate =
      static_cast<double>(traced.dynamic_messages) / traced.dynamic_s;
  const double retries = static_cast<double>(traced.retries) /
                         static_cast<double>(traced.dynamic_messages);
  const double compiled_ms = median(tracer.durations_ms("sim.compiled"));
  std::vector<Probe> probes;
  for (const auto& phase : phases)
    probes.push_back({phase.name + " " + phase.problem, &net, "torus:8x8",
                      phase.pattern()});
  probe_layers(probes, tracer, m);
  probe_daemon(config, probes, m);
  m["sim.dynamic_msgs_per_s"] = {dynamic_rate, "1/s"};
  m["sim.retries_per_msg"] = {retries, "ratio"};
  m["sim.compiled_ms"] = {compiled_ms, "ms"};
  if (!config.trace_out.empty()) tracer.write_jsonl(config.trace_out);
  return result;
}

}  // namespace perfbench
