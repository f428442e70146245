#pragma once

// Shared vocabulary of the repo benchmark driver: input generation from
// the workload seed, timing and statistics, in-memory spans for the
// traced run, output checks, and the optdm_served child process.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/request.hpp"
#include "svc/api.hpp"
#include "svc/client.hpp"
#include "topo/torus.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start);
double ms_since(Clock::time_point start);

/// Nearest-rank percentile; copies and sorts.  0 for an empty sample.
double percentile(std::vector<double> sample, double p);
double median(std::vector<double> sample);

/// End-to-end figures of a workload that repeats one fixed sequence of
/// calls in passes.  Each timing comes from the fastest repetition (the
/// best pass rate, each call's shortest time): interference on the shared
/// host arrives in phases of seconds to minutes and only ever adds time,
/// while a slower code path slows every repetition.
struct PassStats {
  double ops_per_s = 0;
  /// Percentiles, over the calls of a pass, of each call's best time.
  double p50_ms = 0;
  double p99_ms = 0;
};
/// `call_ms[i]` holds call i's time in every pass; `pass_rates` the
/// operations per second of each pass.
PassStats pass_stats(const std::vector<std::vector<double>>& call_ms,
                     const std::vector<double>& pass_rates);

/// Peak and current resident set of a process (`/proc/<pid>/status`,
/// VmHWM / VmRSS), in MB; `pid` 0 reads this process.
double peak_rss_mb(int pid = 0);
double current_rss_mb();

/// splitmix64: the benchmark's own input generator, so the inputs depend
/// only on the seed and not on the library under test.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, n).
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i)
      std::swap(v[i - 1], v[below(i)]);
  }

 private:
  std::uint64_t state_;
};

/// `count` distinct (src != dst) pairs on `nodes` nodes, in random order.
optdm::core::RequestSet random_pairs(int nodes, int count, Rng& rng);
/// A random permutation of `nodes` nodes without fixed points.
optdm::core::RequestSet random_derangement(int nodes, Rng& rng);
/// Torus shift permutation: every node sends to (x + dx, y + dy).
optdm::core::RequestSet torus_shift(const optdm::topo::TorusNetwork& net,
                                    int dx, int dy);

/// One named metric value of the final report.
struct Metric {
  double value = 0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// In-memory spans of the traced run, timed around calls into the
/// library's public functions from the benchmark's own files.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    /// Index of the enclosing span, -1 at top level.
    int parent = -1;
  };

  /// Runs `fn` inside a span named `name`.
  template <typename Fn>
  decltype(auto) span(const std::string& name, Fn&& fn) {
    const int index = open(name);
    struct Closer {
      Tracer* tracer;
      int index;
      ~Closer() { tracer->close(index); }
    } closer{this, index};
    return fn();
  }
  /// Records a span whose duration the library measured itself.
  void record(const std::string& name, std::int64_t duration_ns);

  /// Durations of every span called `name`, in ms.
  std::vector<double> durations_ms(const std::string& name) const;
  double median_us(const std::string& name) const;
  double total_ms(const std::string& name) const;

  /// Appends another tracer's spans (one tracer per client thread).
  void absorb(const Tracer& other);
  /// Writes every span as one JSON object per line.
  void write_jsonl(const std::string& path) const;

 private:
  int open(const std::string& name);
  void close(int index);
  std::int64_t now_ns() const;

  std::vector<Span> spans_;
  int current_ = -1;
};

/// Output check of one compiled schedule: reload `text` with
/// `io::read_schedule`, require conflict-free slots covering exactly
/// `pattern`, a degree equal to `degree`, and a degree at or above the
/// `sched` lower bound of the pattern.  Returns an empty string when all
/// hold, else the first violation.
std::string check_schedule(const optdm::topo::TorusNetwork& net,
                           const optdm::core::RequestSet& pattern,
                           const std::string& text, int degree);

/// The fields of a compile response that must match between transports
/// (cache provenance legitimately differs: the daemon serves hits).
bool same_result(const optdm::svc::CompileResponse& a,
                 const optdm::svc::CompileResponse& b);
/// Wire bytes of a simulate response with cache provenance cleared.
std::string result_bytes(optdm::svc::SimulateResponse response);

/// An `optdm_served` child process on a kernel-assigned port.  The
/// constructor returns once the daemon has announced its port; the
/// destructor asks it to shut down and reaps it (SIGKILL as fallback).
class Daemon {
 public:
  Daemon(const std::string& binary, int workers);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  optdm::svc::Client::Options client_options() const;
  int pid() const { return pid_; }
  /// Clean protocol shutdown; returns true when the daemon exited 0.
  bool stop();

 private:
  int pid_ = -1;
  int stdout_fd_ = -1;
  std::uint16_t port_ = 0;
};

/// What one workload run measured.
struct RunResult {
  double setup_s = 0;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  /// Run-level check failures (determinism, recorded expected values).
  std::vector<std::string> problems;
  Metrics metrics;
};

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool setup_only = false;
  /// Small inputs and short windows for the self-test.
  bool tiny = false;
  std::string served;
  /// Recorded `slots_total` for this seed; negative = not recorded.
  std::int64_t expect_slots = -1;
  std::string trace_out;
};

/// Adds `slots_total` to the result and, when the seed has a recorded
/// value, checks it.
void report_slots(const Config& config, std::int64_t slots, RunResult& result);

/// One compile pattern of a workload with the substrate it targets.
struct Probe {
  std::string name;
  const optdm::topo::TorusNetwork* net = nullptr;
  std::string topology;
  optdm::core::RequestSet pattern;
};

RunResult run_serve(const Config& config, bool mixed);
RunResult run_compile_cold(const Config& config);
RunResult run_simulate_scale(const Config& config);

/// Per-layer metrics of the traced run, measured by calling each
/// module's public functions on `probes`.
void probe_layers(const std::vector<Probe>& probes, Tracer& tracer,
                  Metrics& out);
/// Daemon-side per-layer metrics from its stats frame.
void daemon_metrics(const optdm::svc::StatsWire& stats, Metrics& out);
/// Serves `probes` through a fresh daemon (each pattern twice: a miss,
/// then a hit) and reports its counters — the daemon-side layers for the
/// in-process workloads.
void probe_daemon(const Config& config, const std::vector<Probe>& probes,
                  Metrics& out);

}  // namespace perfbench
