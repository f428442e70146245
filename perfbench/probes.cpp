// Per-layer probes of the traced run: each module's public functions are
// called on the workload's own patterns, inside spans recorded from here.
// Nothing is instrumented inside the library.

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <thread>

#include "aapc/torus_aapc.hpp"
#include "apps/pipeline.hpp"
#include "apps/sched_cache.hpp"
#include "bench.hpp"
#include "core/conflict_graph.hpp"
#include "core/path.hpp"
#include "io/pattern_io.hpp"
#include "obs/report.hpp"
#include "sched/bounds.hpp"
#include "sched/coloring.hpp"
#include "sched/ordered_aapc.hpp"
#include "sim/compiled.hpp"
#include "sim/dynamic.hpp"
#include "sim/message.hpp"
#include "svc/serialize.hpp"
#include "svc/wire.hpp"

namespace perfbench {

using namespace optdm;

namespace {

/// Drains frames written into one end of a socketpair on a reader thread,
/// so `svc::write_frame` is timed against a live local peer.
class FrameSink {
 public:
  FrameSink() {
    if (socketpair(AF_UNIX, SOCK_STREAM, 0, fds_) != 0)
      throw std::runtime_error("socketpair failed");
    reader_ = std::thread([fd = fds_[1]] {
      try {
        while (svc::read_frame(fd)) {
        }
      } catch (const std::exception& e) {
        std::cerr << "perfbench: frame sink: " << e.what() << '\n';
      }
    });
  }
  ~FrameSink() {
    close(fds_[0]);
    reader_.join();
    close(fds_[1]);
  }
  FrameSink(const FrameSink&) = delete;
  FrameSink& operator=(const FrameSink&) = delete;

  int fd() const { return fds_[0]; }

 private:
  int fds_[2] = {-1, -1};
  std::thread reader_;
};

/// Repetitions of a microsecond-scale call: enough for a stable median on
/// small patterns, few on the large ones.
int repetitions(std::size_t connections) {
  return static_cast<int>(
      std::clamp<std::size_t>(20000 / std::max<std::size_t>(connections, 1), 3, 50));
}

svc::CompileRequest request_for(const Probe& probe, bool use_cache) {
  svc::CompileRequest request;
  request.topology = probe.topology;
  request.pattern = probe.pattern;
  request.use_cache = use_cache;
  return request;
}

}  // namespace

void probe_layers(const std::vector<Probe>& probes, Tracer& tracer,
                  Metrics& out) {
  svc::Engine cold_engine;
  svc::Engine warm_engine;
  std::map<const topo::TorusNetwork*, std::unique_ptr<aapc::TorusAapc>> aapcs;
  std::map<const topo::TorusNetwork*, std::unique_ptr<apps::Pipeline>> pipelines;
  FrameSink sink;
  double graph_rss_mb = 0;
  std::int64_t edges = 0;
  std::int64_t over_bound = 0;
  std::int64_t dynamic_messages = 0;
  std::int64_t retries = 0;
  int simulated = 0;

  std::cerr << "perfbench: probe conns route_ms graph_ms coloring_ms "
               "aapc_ms losing_ms engine_cold_ms edges degree-bound\n";
  for (const auto& probe : probes) {
    const auto& net = *probe.net;
    const auto& pattern = probe.pattern;
    auto& aapc = aapcs[&net];
    if (!aapc) aapc = std::make_unique<aapc::TorusAapc>(net);
    auto& pipeline = pipelines[&net];
    if (!pipeline) pipeline = std::make_unique<apps::Pipeline>(net);

    // Compile-side layers, one call each.
    auto t = Clock::now();
    const auto paths = tracer.span("core.route", [&] { return core::route_all(net, pattern); });
    const double route_ms = ms_since(t);
    double graph_ms = 0;
    std::int64_t probe_edges = 0;
    {
      const double rss_before = current_rss_mb();
      t = Clock::now();
      const auto graph =
          tracer.span("core.conflict_graph", [&] { return core::ConflictGraph(paths); });
      graph_ms = ms_since(t);
      graph_rss_mb = std::max(graph_rss_mb, current_rss_mb() - rss_before);
      probe_edges = static_cast<std::int64_t>(graph.edge_count());
      edges += probe_edges;
    }
    obs::SchedCounters counters;
    const auto by_coloring = tracer.span("sched.coloring_paths", [&] {
      return sched::coloring_paths(net, paths, sched::ColoringPriority::kDegreeTimesLength,
                                   &counters);
    });
    tracer.record("sched.coloring", counters.coloring_ns);
    const double coloring_ms = static_cast<double>(counters.coloring_ns) / 1e6;
    t = Clock::now();
    const auto by_aapc =
        tracer.span("sched.ordered_aapc", [&] { return sched::ordered_aapc(*aapc, pattern); });
    const double aapc_ms = ms_since(t);
    const int bound = sched::multiplexing_lower_bound(net, paths);
    const int degree = std::min(by_coloring.degree(), by_aapc.degree());
    over_bound += degree - bound;
    // The combined scheduler keeps coloring on a tie, so the AAPC branch
    // loses unless it is strictly better.
    const double losing_ms = by_aapc.degree() < by_coloring.degree()
                                 ? route_ms + graph_ms + coloring_ms
                                 : aapc_ms;
    tracer.record("sched.losing_branch", static_cast<std::int64_t>(losing_ms * 1e6));
    t = Clock::now();
    const auto cold = tracer.span("svc.engine_compile_cold", [&] {
      return cold_engine.compile(request_for(probe, false));
    });
    const double cold_ms = ms_since(t);
    const auto miss =
        tracer.span("apps.miss_compile", [&] { return pipeline->compile_phase(pattern); });
    std::cerr << "perfbench: " << probe.name << ' ' << pattern.size() << ' ' << route_ms
              << ' ' << graph_ms << ' ' << coloring_ms << ' ' << aapc_ms << ' '
              << losing_ms << ' ' << cold_ms << ' ' << probe_edges << ' '
              << degree - bound << '\n';

    // Warm-path layers, repeated for a stable median.
    const int reps = repetitions(pattern.size());
    const auto warm_request = request_for(probe, true);
    (void)warm_engine.compile(warm_request);
    for (int i = 0; i < reps; ++i)
      tracer.span("svc.engine_compile_warm", [&] { return warm_engine.compile(warm_request); });
    const auto key = apps::make_cache_key(net, pattern, "combined", sched::SchedOptions{});
    for (int i = 0; i < reps; ++i)
      tracer.span("apps.cache_key", [&] {
        return apps::make_cache_key(net, pattern, "combined", sched::SchedOptions{});
      });
    apps::ScheduleCache cache(net);
    cache.store(key, apps::CachedCompilation{miss.phase.schedule, miss.phase.lower_bound,
                                             cold.winner, {}});
    for (int i = 0; i < reps; ++i)
      tracer.span("apps.cache_lookup", [&] { return cache.lookup(key); });
    const auto& schedule = miss.phase.schedule;
    for (int i = 0; i < reps; ++i)
      tracer.span("obs.report_schedule", [&] { return obs::report_schedule(schedule); });
    for (int i = 0; i < reps; ++i)
      tracer.span("io.write_schedule", [&] {
        std::ostringstream text;
        io::write_schedule(text, net, schedule);
        return text.str();
      });
    for (int i = 0; i < reps; ++i)
      tracer.span("core.validate", [&] { return schedule.validate_against(pattern); });
    std::string body;
    for (int i = 0; i < reps; ++i)
      body = tracer.span("svc.encode", [&] { return svc::encode(cold); });
    for (int i = 0; i < reps; ++i)
      tracer.span("svc.decode", [&] { return svc::decode_compile_response(body); });
    svc::Frame frame;
    frame.type = svc::FrameType::kCompileResponse;
    frame.payload = body;
    for (int i = 0; i < reps; ++i)
      tracer.span("svc.write_frame", [&] {
        svc::write_frame(sink.fd(), frame);
        return 0;
      });

    // Simulator layers on the first few small patterns.
    if (pattern.size() <= 4096 && simulated < 4) {
      ++simulated;
      const auto messages = sim::uniform_messages(pattern, 4);
      sim::DynamicParams params;
      params.multiplexing_degree = 2;
      const auto dynamic = tracer.span("sim.dynamic_probe", [&] {
        return sim::simulate_dynamic(net, messages, params);
      });
      dynamic_messages += static_cast<std::int64_t>(messages.size());
      retries += dynamic.total_retries;
      tracer.span("sim.compiled_probe",
                  [&] { return sim::simulate_compiled(schedule, messages); });
      svc::SimulateRequest request;
      request.topology = probe.topology;
      request.pattern = pattern;
      request.dynamic_ks = {2};
      tracer.span("svc.engine_simulate", [&] { return warm_engine.simulate(request); });
    }
  }

  out["svc.engine_compile_warm_us"] = {tracer.median_us("svc.engine_compile_warm"), "us"};
  out["svc.engine_compile_cold_ms"] = {tracer.total_ms("svc.engine_compile_cold"), "ms"};
  out["svc.decode_us"] = {tracer.median_us("svc.decode"), "us"};
  out["svc.encode_us"] = {tracer.median_us("svc.encode"), "us"};
  out["svc.write_frame_us"] = {tracer.median_us("svc.write_frame"), "us"};
  out["svc.engine_simulate_ms"] = {median(tracer.durations_ms("svc.engine_simulate")), "ms"};
  out["apps.cache_key_us"] = {tracer.median_us("apps.cache_key"), "us"};
  out["apps.cache_lookup_us"] = {tracer.median_us("apps.cache_lookup"), "us"};
  out["apps.miss_compile_ms"] = {tracer.total_ms("apps.miss_compile"), "ms"};
  out["obs.report_schedule_us"] = {tracer.median_us("obs.report_schedule"), "us"};
  out["io.write_schedule_us"] = {tracer.median_us("io.write_schedule"), "us"};
  out["core.validate_us"] = {tracer.median_us("core.validate"), "us"};
  out["core.route_ms"] = {tracer.total_ms("core.route"), "ms"};
  out["core.conflict_graph_ms"] = {tracer.total_ms("core.conflict_graph"), "ms"};
  out["core.conflict_edges"] = {static_cast<double>(edges), "count"};
  out["core.conflict_graph_rss_mb"] = {graph_rss_mb, "MB"};
  out["sched.coloring_ms"] = {tracer.total_ms("sched.coloring"), "ms"};
  out["sched.ordered_aapc_ms"] = {tracer.total_ms("sched.ordered_aapc"), "ms"};
  out["sched.losing_branch_ms"] = {tracer.total_ms("sched.losing_branch"), "ms"};
  out["sched.degree_over_bound"] = {static_cast<double>(over_bound), "slots"};
  out["sim.dynamic_msgs_per_s"] = {
      static_cast<double>(dynamic_messages) /
          (tracer.total_ms("sim.dynamic_probe") / 1000.0),
      "1/s"};
  out["sim.retries_per_msg"] = {
      static_cast<double>(retries) / static_cast<double>(dynamic_messages), "ratio"};
  out["sim.compiled_ms"] = {median(tracer.durations_ms("sim.compiled_probe")), "ms"};
}

void probe_daemon(const Config& config, const std::vector<Probe>& probes,
                  Metrics& out) {
  Daemon daemon(config.served, 2);
  svc::Client client(daemon.client_options());
  std::vector<double> latency_ms;
  for (int round = 0; round < 2; ++round)
    for (const auto& probe : probes) {
      const auto started = Clock::now();
      (void)client.compile(request_for(probe, true));
      latency_ms.push_back(ms_since(started));
    }
  daemon_metrics(client.stats(), out);
  out["svc.client_compile_p99_ms"] = {percentile(latency_ms, 99), "ms"};
  daemon.stop();
}

}  // namespace perfbench
