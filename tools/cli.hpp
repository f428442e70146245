#pragma once

// Shared command-line plumbing of the optdm_* tools, table-driven: each
// tool declares the flag groups it speaks, and this header provides the
// one parser behind them — flag validation (a typo is an error with the
// known-flag list, not a silently ignored option), generated `--help`
// text, pattern loading, and transport selection.  Header-only on
// purpose — the tools directory has no library target.
//
// Transport selection is the service API's "one API, two transports" in
// CLI form: every tool builds `svc::CompileRequest` / `svc::SimulateRequest`
// structs and executes them through `make_service()`, which returns the
// in-process `svc::Engine` by default and a `svc::Client` connected to an
// `optdm_served` daemon when `--connect=host:port` is given.  The printed
// output is identical either way.

#include <algorithm>
#include <fstream>
#include <initializer_list>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "io/pattern_io.hpp"
#include "patterns/named.hpp"
#include "sched/scheduler.hpp"
#include "svc/api.hpp"
#include "svc/client.hpp"
#include "topo/torus.hpp"
#include "util/cli.hpp"

namespace optdm::tools {

/// One declared flag: its name, a value metavar ("" for boolean flags),
/// and the help line printed by `usage()`.
struct Flag {
  const char* name;
  const char* value;
  const char* help;
};

using FlagTable = std::vector<Flag>;

/// Concatenates flag groups into one tool-level table.
inline FlagTable flag_table(std::initializer_list<FlagTable> groups) {
  FlagTable table;
  for (const auto& group : groups)
    table.insert(table.end(), group.begin(), group.end());
  return table;
}

/// The pattern-input flags every tool shares.
inline FlagTable pattern_flags() {
  return {
      {"pattern", "NAME",
       "ring|nearest-neighbor|hypercube|tscf|shuffle-exchange|all-to-all|\n"
       "linear|gs|transpose|bit-reversal"},
      {"pattern-file", "F", "`src dst` pattern file (overrides --pattern)"},
  };
}

/// Scheduler + schedule-cache flags.
inline FlagTable compile_flags() {
  return {
      {"algorithm", "NAME", "scheduler registry name (default combined)"},
      {"cache-dir", "DIR", "on-disk schedule cache directory"},
      {"no-cache", "", "disable the schedule cache"},
  };
}

/// Transport flags: local engine by default, daemon when connected.
inline FlagTable service_flags() {
  return {
      {"connect", "HOST:PORT",
       "execute on an optdm_served daemon instead of in-process"},
      {"priority", "P",
       "admission priority at the daemon: interactive|normal|batch"},
  };
}

/// Shard-supervision flags of the dynamic-reservation sweep.
inline FlagTable shard_flags() {
  return {
      {"shards", "N",
       "fan the dynamic-reservation rows over N forked worker\n"
       "processes; the output is byte-identical at any N"},
      {"shard-retries", "N",
       "re-forks the supervisor grants each shard before the\n"
       "exhaustion policy applies (default 2)"},
      {"shard-deadline-ms", "N",
       "SIGKILL + re-fork a shard that makes no progress for\n"
       "N ms (default 0 = no deadline)"},
      {"shard-salvage", "",
       "on an exhausted shard, keep going and mark its cells\n"
       "missing instead of failing the run"},
  };
}

/// Rejects any supplied flag the table does not declare (`--help` is
/// always accepted).  A typo fails loudly instead of silently running
/// with defaults.
inline void check_flags(const util::CliArgs& args, const FlagTable& table) {
  for (const auto& name : args.names()) {
    if (name == "help") continue;
    bool known = false;
    for (const auto& flag : table)
      if (name == flag.name) {
        known = true;
        break;
      }
    if (!known) {
      std::string message = "unknown flag --" + name + " (known:";
      for (const auto& flag : table)
        message += std::string(" --") + flag.name;
      throw std::runtime_error(message + ")");
    }
  }
}

/// Generated `--help` text: intro paragraph, then one line per flag.
/// Descriptions share one column, two spaces past the longest flag (and
/// never left of column 20); a `\n` in a description continues it on a
/// new line indented to that column.
inline std::string usage(const std::string& tool, const std::string& intro,
                         const FlagTable& table) {
  const auto head_of = [](const Flag& flag) {
    std::string head = std::string("  --") + flag.name;
    if (flag.value[0] != '\0') head += std::string("=") + flag.value;
    return head;
  };
  std::size_t column = 20;
  for (const auto& flag : table) column = std::max(column, head_of(flag).size() + 2);
  const std::string indent(column, ' ');

  std::string out = "usage: " + tool + " [flags]\n\n" + intro + "\n\nflags:\n";
  const auto line = [&](std::string head, std::string_view help) {
    head.resize(column, ' ');
    out += head;
    for (const char c : help) {
      out += c;
      if (c == '\n') out += indent;
    }
    out += '\n';
  };
  for (const auto& flag : table) line(head_of(flag), flag.help);
  line("  --help", "this text");
  return out;
}

/// Loads `--pattern-file`, or the built-in named `--pattern` (default
/// `fallback`).  Node ids are range-checked against `net`.  The name set
/// is the union of what the tools historically accepted: `gs` and `tscf`
/// are aliases for the application patterns (linear neighbors, hypercube).
inline core::RequestSet load_pattern(const util::CliArgs& args,
                                     const topo::TorusNetwork& net,
                                     const std::string& fallback) {
  if (args.has("pattern-file")) {
    std::ifstream in(args.get("pattern-file"));
    if (!in) throw std::runtime_error("cannot open pattern file");
    auto requests = io::read_pattern(in);
    for (const auto& r : requests)
      if (r.src >= net.node_count() || r.dst >= net.node_count())
        throw std::runtime_error("pattern references nodes outside " +
                                 net.name());
    return requests;
  }
  const auto name = args.get("pattern", fallback);
  const int nodes = net.node_count();
  if (name == "ring") return patterns::ring(nodes);
  if (name == "nearest-neighbor") return patterns::nearest_neighbor(net);
  if (name == "hypercube" || name == "tscf") return patterns::hypercube(nodes);
  if (name == "shuffle-exchange") return patterns::shuffle_exchange(nodes);
  if (name == "all-to-all") return patterns::all_to_all(nodes);
  if (name == "linear" || name == "gs") return patterns::linear_neighbors(nodes);
  if (name == "transpose") return patterns::transpose(nodes);
  if (name == "bit-reversal") return patterns::bit_reversal(nodes);
  throw std::runtime_error(
      "unknown --pattern '" + name +
      "' (ring|nearest-neighbor|hypercube|tscf|shuffle-exchange|all-to-all|"
      "linear|gs|transpose|bit-reversal)");
}

/// Resolves `--algorithm`, validated eagerly against the registry so a
/// typo fails with the known-name list instead of deep in a compile.
inline std::string algorithm(const util::CliArgs& args) {
  const auto name = args.get("algorithm", "combined");
  sched::registry().at(name);  // throws listing the known names
  return name;
}

/// Builds the transport behind the request structs: an in-process
/// `svc::Engine` (honoring the cache flags), or — with
/// `--connect=host:port` — a `svc::Client` against a running daemon.
inline std::unique_ptr<svc::Service> make_service(const util::CliArgs& args) {
  if (args.has("connect")) {
    const auto spec = args.get("connect");
    const auto colon = spec.rfind(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 == spec.size())
      throw std::runtime_error("--connect wants HOST:PORT, got '" + spec +
                               "'");
    svc::Client::Options options;
    options.host = spec.substr(0, colon);
    const auto port = std::stoi(spec.substr(colon + 1));
    if (port < 1 || port > 65535)
      throw std::runtime_error("--connect port out of range: " + spec);
    options.port = static_cast<std::uint16_t>(port);
    if (args.has("priority")) {
      const auto parsed = svc::priority_from_string(args.get("priority"));
      if (!parsed)
        throw std::runtime_error(
            "--priority wants interactive|normal|batch, got '" +
            args.get("priority") + "'");
      options.priority = *parsed;
    }
    return std::make_unique<svc::Client>(options);
  }
  svc::Engine::Options options;
  options.cache_dir = args.get("cache-dir", "");
  return std::make_unique<svc::Engine>(options);
}

/// Fills the request fields shared by compile and simulate requests.
template <typename Request>
void fill_request(Request& request, const util::CliArgs& args,
                  const std::string& topology, core::RequestSet pattern) {
  request.topology = topology;
  request.scheduler = algorithm(args);
  request.pattern = std::move(pattern);
  request.use_cache = !args.get_bool("no-cache");
}

}  // namespace optdm::tools
