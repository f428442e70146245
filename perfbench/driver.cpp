// perfbench_driver — runs one benchmark workload and prints what it
// measured as one JSON line on stdout (perfbench/run.py wraps it).
//
//   perfbench_driver --workload=NAME --seed=N --seconds=S --trace=0|1
//                    --served=PATH [--setup-only] [--tiny]
//                    [--expect-slots=N] [--trace-out=FILE]
//   perfbench_driver --selftest

#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>

#include "bench.hpp"
#include "svc/api.hpp"
#include "util/cli.hpp"

namespace {

using namespace perfbench;

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string number(double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

void print_json(const RunResult& result) {
  std::ostringstream out;
  out << "{\"setup_s\": " << number(result.setup_s)
      << ", \"attempted\": " << result.attempted
      << ", \"failed\": " << result.failed << ", \"problems\": [";
  for (std::size_t i = 0; i < result.problems.size(); ++i)
    out << (i ? ", " : "") << json_string(result.problems[i]);
  out << "], \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : result.metrics) {
    out << (first ? "" : ", ") << json_string(name) << ": {\"value\": "
        << number(metric.value) << ", \"unit\": " << json_string(metric.unit)
        << "}";
    first = false;
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

RunResult run(const Config& config) {
  if (config.workload == "serve_warm") return run_serve(config, false);
  if (config.workload == "serve_mixed") return run_serve(config, true);
  if (config.workload == "compile_cold") return run_compile_cold(config);
  if (config.workload == "simulate_scale") return run_simulate_scale(config);
  throw std::runtime_error("unknown workload '" + config.workload + "'");
}

/// The negative half of the benchmark's self-test (perfbench/run.py
/// --selftest runs the tiny workloads): the output checks must catch a
/// schedule with one request dropped, one with two conflicting paths in
/// one slot, and daemon bytes that differ from in-process bytes.
int selftest() {
  using namespace optdm;
  int failures = 0;
  auto expect = [&](bool ok, const std::string& what) {
    std::cout << (ok ? "PASS " : "FAIL ") << what << '\n';
    failures += ok ? 0 : 1;
  };

  // Negative cases on a real compiled schedule: the pattern {0->1, 0->2,
  // 1->2} shares node 0's injection link, so it needs two slots.
  const topo::TorusNetwork net(8, 8);
  const core::RequestSet pattern{{0, 1}, {0, 2}, {1, 2}};
  svc::Engine engine;
  svc::CompileRequest request;
  request.pattern = pattern;
  const auto response = engine.compile(request);
  expect(check_schedule(net, pattern, response.schedule_text, response.degree)
             .empty(),
         "the intact schedule passes the check");

  // One request dropped: delete the first path line.
  auto dropped = response.schedule_text;
  const auto path_at = dropped.find("\npath ");
  dropped.erase(path_at, dropped.find('\n', path_at + 1) - path_at);
  expect(!check_schedule(net, pattern, dropped, response.degree).empty(),
         "a schedule with one request dropped is caught");

  // Two conflicting paths in one slot: move every path into slot 0.
  std::istringstream in(response.schedule_text);
  std::string line;
  std::string merged;
  std::string paths;
  while (std::getline(in, line)) {
    if (line.rfind("path ", 0) == 0) {
      paths += line + '\n';
    } else if (line.rfind("slots ", 0) == 0) {
      merged += "slots 1\n";
    } else if (line.rfind("slot ", 0) != 0) {
      merged += line + '\n';
    }
  }
  merged += "slot 0\n" + paths;
  expect(!check_schedule(net, pattern, merged, 1).empty(),
         "a schedule with two conflicting paths in one slot is caught");

  auto altered = response;
  altered.schedule_text += " ";
  expect(!same_result(response, altered),
         "daemon bytes differing from in-process bytes are caught");
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const optdm::util::CliArgs args(argc, argv);
    if (args.get_bool("selftest")) return selftest();
    const std::string served = args.get("served", "");
    if (served.empty()) throw std::runtime_error("--served=PATH is required");

    Config config;
    config.workload = args.get("workload", "");
    config.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
    config.seconds = args.get_double("seconds", 10);
    config.trace = args.get_int("trace", 0) != 0;
    config.setup_only = args.get_bool("setup-only");
    config.tiny = args.get_bool("tiny");
    config.served = served;
    config.expect_slots = args.get_int("expect-slots", -1);
    config.trace_out = args.get("trace-out", "");
    print_json(run(config));
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << e.what() << '\n';
    return 1;
  }
}
