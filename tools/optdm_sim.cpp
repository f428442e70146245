// optdm_sim — command-line simulator driver: the runtime-side companion
// of optdm_compile.  Takes a topology, a pattern (file or built-in), a
// message size, and runs it under every control regime the library
// models:
//
//   compiled      off-line schedule, TDM transmission (the paper's model)
//   compiled-wdm  same schedule over wavelength channels
//   dynamic K     distributed path reservation at fixed degree K
//   static-aapc   preloaded all-to-all frame (dynamic-pattern fallback)
//   multihop      hypercube embedding, store-and-forward
//
// The static-AAPC and multihop rows model the paper's 8x8 substrate and
// only appear there; the mega-scale tori run the compiled and dynamic
// regimes.  The whole comparison executes through the compilation
// service — in-process by default, a remote optdm_served daemon with
// --connect — and the printed table is byte-identical on either
// transport, at any shard count.
//
// Examples:
//   optdm_sim --pattern=tscf --slots=2
//   optdm_sim --pattern-file=phase.txt --slots=16 --algorithm=coloring
//   optdm_sim --pattern=gs --report=run.json   # compiled-run RunReport JSON
//   optdm_sim --topology=torus:32x32 --slots=2 --shards=4
//   optdm_sim --pattern=all-to-all --connect=127.0.0.1:7440

#include <fstream>
#include <iostream>

#include "cli.hpp"
#include "topo/factory.hpp"
#include "topo/torus.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

const char* kIntro =
    "Simulates one communication pattern under every control regime the\n"
    "library models and prints a comparison table.";

}  // namespace

int main(int argc, char** argv) {
  using namespace optdm;
  try {
    const util::CliArgs args(argc, argv);
    const auto flags = tools::flag_table(
        {{{"topology", "SPEC",
           "substrate: torus:CxR or torus:N (square); the paper's\n"
           "torus:8x8 is the default, torus:32x32 / "
           "torus:64x64\n"
           "are the mega-scale points"}},
         tools::pattern_flags(),
         {{"slots", "N", "message size in payload slots (default 4)"}},
         tools::shard_flags(),
         tools::compile_flags(),
         {{"report", "FILE",
           "dump the compiled run as optdm-run-report/1 JSON"}},
         tools::service_flags()});
    if (args.get_bool("help")) {
      std::cout << tools::usage("optdm_sim", kIntro, flags);
      return 0;
    }
    tools::check_flags(args, flags);

    const std::string topology = args.get("topology", "torus:8x8");
    const auto spec = topo::parse_topology_spec(topology);
    if (spec.family != topo::TopologySpec::Family::kTorus)
      throw std::runtime_error(
          "optdm_sim drives the torus substrate; --topology accepts "
          "torus:CxR / torus:N");
    topo::TorusNetwork net(spec.cols, spec.rows);

    const auto shards = args.get_int("shards", 1);
    if (shards < 1) throw std::runtime_error("--shards must be positive");

    svc::SimulateRequest request;
    tools::fill_request(request, args, topology,
                        tools::load_pattern(args, net, "tscf"));
    request.want_report = args.has("report");
    request.slots = args.get_int("slots", 4);
    request.use_shards = args.has("shards");
    request.shards.shards = static_cast<int>(shards);
    request.shards.policy.max_retries =
        static_cast<int>(args.get_int("shard-retries", 2));
    request.shards.policy.deadline_ms = args.get_int("shard-deadline-ms", 0);
    if (args.get_bool("shard-salvage"))
      request.shards.policy.on_exhaustion = apps::ShardExhaustion::kSalvage;

    std::cout << "pattern: " << request.pattern.size() << " requests x "
              << request.slots << " slots on " << net.name() << "\n\n";

    const auto service = tools::make_service(args);
    const auto response = service->simulate(request);

    util::Table table({"regime", "K / frame", "slots", "notes"});

    std::string note = request.scheduler == "combined"
                           ? "winner: " + response.compiled.winner
                           : "algorithm: " + request.scheduler;
    if (response.compiled.cache_hit) note += ", cached";
    table.add_row({"compiled (TDM)",
                   util::Table::fmt(std::int64_t{response.compiled.degree}),
                   util::Table::fmt(response.tdm_slots), note});

    table.add_row({"compiled (WDM)",
                   util::Table::fmt(std::int64_t{response.compiled.degree}),
                   util::Table::fmt(response.wdm_slots),
                   "full-rate channels"});

    // Supervision incidents go to stderr (stdout must stay byte-identical
    // to a fault-free run — CI diffs it).
    const auto& sup = response.supervision;
    if (sup.retries > 0 || sup.salvaged_cells > 0)
      std::cerr << "shard supervision: " << sup.retries << " retries ("
                << sup.restarts_crashed << " crashed, " << sup.restarts_hung
                << " hung, " << sup.restarts_corrupt << " corrupt), "
                << sup.salvaged_cells << " cells salvaged as missing\n";

    for (const auto& row : response.dynamic) {
      if (row.missing) {
        table.add_row({"dynamic reservation",
                       util::Table::fmt(std::int64_t{row.k}), "missing",
                       "shard salvaged"});
        continue;
      }
      table.add_row({"dynamic reservation", util::Table::fmt(std::int64_t{row.k}),
                     row.completed ? util::Table::fmt(row.total_slots) : "dnf",
                     util::Table::fmt(row.total_retries) + " retries"});
    }

    if (response.has_paper_rows) {
      table.add_row({"static AAPC frame", "64",
                     util::Table::fmt(response.aapc_slots),
                     "no reservations"});
      table.add_row(
          {"hypercube multihop",
           util::Table::fmt(std::int64_t{response.multihop_degree}),
           response.multihop_completed
               ? util::Table::fmt(response.multihop_slots)
               : "dnf",
           "store-and-forward"});
    }

    table.print(std::cout);

    // --report=FILE dumps the compiled run (plus the scheduling-phase and
    // cache counters) as an `optdm-run-report/1` JSON document, built by
    // the serving engine.
    if (args.has("report")) {
      std::ofstream out(args.get("report"));
      out << response.report_json;
      if (!out) throw std::runtime_error("cannot write report file");
      std::cout << "\nwrote report to " << args.get("report") << '\n';
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "optdm_sim: " << e.what() << '\n';
    return 1;
  }
}
