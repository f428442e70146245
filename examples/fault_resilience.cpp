// Resilience sweep: both control regimes on a faulty fabric.
//
// For each fault level, a seeded random timeline (permanent link kills,
// transient flaps, control-packet loss) is replayed against:
//  * compiled communication under the detect-and-recompile recovery loop
//    (reroute around the dead links, reschedule, retransmit), and
//  * the dynamic reservation protocol at fixed K in {1, 2, 5, 10}, with
//    reservation timeouts, capped exponential backoff, and a retry
//    budget.
//
// The whole (level x regime x K) grid goes through the sweep engine:
// timelines are drawn serially, then every cell simulates independently
// on the thread pool — the table is byte-identical at any OPTDM_THREADS.
//
// The structural difference shows directly: the compiled side recovers by
// recompilation (it can re-route), the dynamic side can only retry its
// deterministic route — a permanently dead link strands those messages.
//
// Run:  ./fault_resilience [--messages=120] [--slots=4] [--seed=17]
//                          [--trace=FILE] [--report=FILE]
//
// --trace / --report capture the heaviest dynamic run (K=10 under the
// "heavy" fault level) as a Chrome trace_event timeline and an
// `optdm-run-report/1` JSON document (see tools/run_report.py).

#include <fstream>
#include <iostream>

#include "apps/sweep.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "patterns/random.hpp"
#include "sim/dynamic.hpp"
#include "topo/torus.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace optdm;

  const util::CliArgs args(argc, argv);
  const auto count = args.get_int("messages", 120);
  const auto slots = args.get_int("slots", 4);
  const auto seed = args.get_int("seed", 17);

  topo::TorusNetwork net(8, 8);
  util::Rng rng(static_cast<std::uint64_t>(seed));
  const auto requests =
      patterns::random_pattern(64, static_cast<int>(count), rng);

  apps::SweepGrid grid;
  apps::CommPhase phase;
  phase.name = "random";
  phase.messages = sim::uniform_messages(requests, slots);
  const auto total = static_cast<std::int64_t>(phase.messages.size());
  grid.phases.push_back(std::move(phase));
  grid.faults = {
      {"none", {}},
      {"light", {0.005, 0.02, 1024, 256, 0.02, false, 0xfa017}},
      {"moderate", {0.02, 0.05, 1024, 256, 0.05, false, 0xfa017}},
      {"heavy", {0.05, 0.10, 1024, 256, 0.15, false, 0xfa017}},
  };
  for (const int k : {1, 2, 5, 10}) {
    apps::DynamicVariant variant;
    variant.label = "K=" + std::to_string(k);
    variant.params.multiplexing_degree = k;
    variant.params.retry_budget = 8;
    variant.params.max_backoff_slots = 512;
    grid.dynamic.push_back(std::move(variant));
  }

  apps::SweepOptions options;
  options.recovery = true;
  apps::SweepRunner runner(net, options);
  const auto sweep = runner.run(grid);

  std::cout << "random pattern, " << total << " messages x " << slots
            << " slots on an 8x8 torus\n"
            << "fault levels: per-link kill/flap probability + control-packet "
               "loss\n\n";

  util::Table table({"faults", "control", "K", "delivered", "lost", "failed",
                     "payloads lost", "retries", "recompiles", "time (slots)"});
  const auto pct = [&](std::int64_t undelivered) {
    return util::Table::fmt(
               100.0 * static_cast<double>(total - undelivered) /
                   static_cast<double>(total),
               1) +
           "%";
  };

  for (std::size_t f = 0; f < grid.faults.size(); ++f) {
    const auto& level = grid.faults[f];
    const auto& rec = *sweep.compiled_cell(0, f).recovery;
    table.add_row({level.name, "compiled", "auto",
                   pct(rec.faults.undelivered()),
                   util::Table::fmt(rec.faults.messages_lost),
                   util::Table::fmt(rec.faults.messages_failed),
                   util::Table::fmt(rec.faults.payloads_lost), "0",
                   util::Table::fmt(rec.faults.recompiles),
                   util::Table::fmt(rec.total_slots)});

    for (std::size_t v = 0; v < grid.dynamic.size(); ++v) {
      const auto& run = sweep.dynamic_cell(0, f, v).result;
      table.add_row(
          {level.name, "dynamic", grid.dynamic[v].label.substr(2),
           pct(run.faults.undelivered()),
           util::Table::fmt(run.faults.messages_lost),
           util::Table::fmt(run.faults.messages_failed),
           util::Table::fmt(run.faults.payloads_lost),
           util::Table::fmt(run.total_retries),
           "-",
           run.completed ? util::Table::fmt(run.total_slots) : "dnf"});
    }
  }
  table.print(std::cout);

  // Observe the heaviest configuration of the sweep.  Re-running the one
  // cell is free relative to the sweep and keeps the sweep itself
  // untraced; determinism makes the re-run identical to the cell above.
  if (args.has("trace") || args.has("report")) {
    const auto& params = grid.dynamic.back().params;
    const auto& messages = grid.phases.front().messages;
    obs::Trace trace;
    sim::SimOptions sim_options;
    sim_options.faults = &sweep.timelines.back();
    if (args.has("trace")) sim_options.trace = &trace;
    const auto run =
        sim::simulate_dynamic(net, messages, params, sim_options);
    if (args.has("trace")) {
      std::ofstream out(args.get("trace"));
      trace.write_chrome(out);
    }
    if (args.has("report")) {
      std::ofstream out(args.get("report"));
      obs::report_dynamic(net, messages, run, params).write_json(out);
    }
  }

  std::cout << "\nthe recovery loop restores delivery by recompiling onto the "
               "surviving\ntopology (unroutable requests excepted); the "
               "dynamic protocol is stuck with\nits deterministic route and "
               "can only burn its retry budget against a dead\nlink.  "
               "control-packet loss costs the dynamic side timeouts and "
               "retries;\ncompiled communication has no control traffic to "
               "lose.\n";
  return 0;
}
