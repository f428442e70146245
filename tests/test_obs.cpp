#include <gtest/gtest.h>

#include <sstream>

#include "apps/compiler.hpp"
#include "core/switch_program.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "patterns/named.hpp"
#include "patterns/random.hpp"
#include "sim/compiled.hpp"
#include "sim/dynamic.hpp"
#include "sim/faults.hpp"
#include "sim/hardware.hpp"
#include "topo/torus.hpp"
#include "util/rng.hpp"

// The observability layer's contract has two halves, and these tests pin
// both: every trace accounts exactly for the engine's reported statistics
// (no event invented, none dropped), and the null sink is a true no-op
// (identical results with tracing off).

namespace {

using namespace optdm;

sim::SimOptions with(const sim::FaultTimeline* faults,
                     obs::Trace* trace = nullptr) {
  sim::SimOptions o;
  o.faults = faults;
  o.trace = trace;
  return o;
}

struct Workload {
  topo::TorusNetwork net{8, 8};
  std::vector<sim::Message> messages;
  sim::FaultTimeline faults;
  sim::DynamicParams params;

  Workload() {
    util::Rng rng(91);
    const auto requests = patterns::random_pattern(64, 120, rng);
    messages = sim::uniform_messages(requests, 4);
    sim::FaultSpec spec;
    spec.kill_probability = 0.01;
    spec.flap_probability = 0.05;
    spec.ctrl_loss = 0.05;
    spec.seed = 0xfa017;
    faults = sim::random_fault_timeline(net, spec);
    params.multiplexing_degree = 5;
    params.retry_budget = 8;
    params.max_backoff_slots = 512;
  }
};

TEST(TraceAccounting, DynamicSpansMatchProtocolStats) {
  const Workload w;
  obs::Trace trace;
  const auto run =
      simulate_dynamic(w.net, w.messages, w.params, with(&w.faults, &trace));
  ASSERT_TRUE(run.completed);

  std::int64_t established = 0;
  std::int64_t transmitted = 0;
  for (const auto& m : run.messages) {
    if (m.established >= 0) ++established;
    if (m.completed >= 0) ++transmitted;
  }

  // Every reservation attempt that ended left exactly one span: one per
  // failed attempt (NACK or timeout) plus one per establishment.
  EXPECT_EQ(trace.count("reservation"),
            static_cast<std::size_t>(run.total_retries + established));
  // Every failed attempt waits a backoff — except budget exhaustion,
  // which fails the message instead of scheduling a retry.
  EXPECT_EQ(trace.count("backoff"),
            static_cast<std::size_t>(run.total_retries -
                                     run.faults.messages_failed));
  // Point events map one-to-one onto the fault statistics.
  EXPECT_EQ(trace.count("timeout"),
            static_cast<std::size_t>(run.faults.timeouts));
  EXPECT_EQ(trace.count("ctrl-drop"),
            static_cast<std::size_t>(run.faults.ctrl_dropped));
  // One down-window span per timeline entry.
  EXPECT_EQ(trace.count("fault"), w.faults.faults().size());
  // One payload span per message whose connection carried data.
  EXPECT_EQ(trace.count("payload"), static_cast<std::size_t>(transmitted));

  // This workload actually exercises every channel of the trace.
  EXPECT_GT(run.total_retries, 0);
  EXPECT_GT(run.faults.timeouts, 0);
  EXPECT_GT(run.faults.ctrl_dropped, 0);
  EXPECT_FALSE(w.faults.faults().empty());
}

TEST(TraceAccounting, NullSinkIsByteIdentical) {
  const Workload w;
  obs::Trace trace;
  const auto traced =
      simulate_dynamic(w.net, w.messages, w.params, with(&w.faults, &trace));
  const auto plain =
      simulate_dynamic(w.net, w.messages, w.params, with(&w.faults));

  EXPECT_EQ(traced.total_slots, plain.total_slots);
  EXPECT_EQ(traced.total_retries, plain.total_retries);
  EXPECT_EQ(traced.clean_shutdown, plain.clean_shutdown);
  EXPECT_EQ(traced.faults, plain.faults);
  ASSERT_EQ(traced.messages.size(), plain.messages.size());
  for (std::size_t i = 0; i < traced.messages.size(); ++i) {
    EXPECT_EQ(traced.messages[i].slot, plain.messages[i].slot);
    EXPECT_EQ(traced.messages[i].established, plain.messages[i].established);
    EXPECT_EQ(traced.messages[i].completed, plain.messages[i].completed);
    EXPECT_EQ(traced.messages[i].retries, plain.messages[i].retries);
    EXPECT_EQ(traced.messages[i].outcome, plain.messages[i].outcome);
  }
  EXPECT_FALSE(trace.events().empty());
}

TEST(TraceAccounting, CompiledPayloadSpansCoverEveryMessage) {
  const Workload w;
  const apps::CommCompiler compiler(w.net);
  const auto phase = compiler.compile(patterns::hypercube(64));
  const auto messages =
      sim::uniform_messages(patterns::hypercube(64), 3);

  obs::Trace trace;
  const auto traced =
      sim::simulate_compiled(phase.schedule, messages, {}, with(nullptr, &trace));
  const auto plain = sim::simulate_compiled(phase.schedule, messages);

  EXPECT_EQ(trace.count("payload"), messages.size());
  EXPECT_EQ(traced.total_slots, plain.total_slots);
  ASSERT_EQ(traced.messages.size(), plain.messages.size());
  for (std::size_t i = 0; i < traced.messages.size(); ++i)
    EXPECT_EQ(traced.messages[i].completed, plain.messages[i].completed);

  // Spans end exactly at the engine's per-message completion times.
  for (const auto& event : trace.events()) {
    if (event.category == "payload") {
      EXPECT_GT(event.end, event.begin);
    }
  }
}

TEST(TraceAccounting, HardwarePayloadSpansMatchDeliveries) {
  topo::TorusNetwork net(4, 4);
  const auto requests = patterns::transpose(16);
  const auto schedule = apps::CommCompiler(net).compile(requests).schedule;
  const core::SwitchProgram program(net, schedule);
  const auto messages = sim::uniform_messages(requests, 2);

  obs::Trace trace;
  const auto traced = sim::execute_on_hardware(net, schedule, program,
                                               messages, {},
                                               with(nullptr, &trace));
  const auto plain =
      sim::execute_on_hardware(net, schedule, program, messages);
  EXPECT_EQ(trace.count("payload"), messages.size());
  EXPECT_EQ(traced.total_slots, plain.total_slots);
  EXPECT_EQ(trace.count("payload-loss"), 0u);
  EXPECT_EQ(trace.count("misroute"), 0u);
}

TEST(RunReport, LinkSlotsSumToAggregateForAllEngines) {
  const Workload w;
  const apps::CommCompiler compiler(w.net);
  obs::SchedCounters counters;
  const auto phase = compiler.compile(patterns::hypercube(64), &counters);
  const auto messages = sim::uniform_messages(patterns::hypercube(64), 3);

  const auto check = [](const obs::RunReport& report) {
    std::int64_t sum = 0;
    for (const auto& usage : report.links) {
      EXPECT_GT(usage.busy_slots, 0) << "zero-usage links must be omitted";
      sum += usage.busy_slots;
    }
    EXPECT_EQ(sum, report.payload_link_slots);
    EXPECT_EQ(report.delivered + report.lost + report.misrouted +
                  report.failed,
              report.messages_total);
  };

  const auto compiled = sim::simulate_compiled(phase.schedule, messages);
  check(obs::report_compiled(phase.schedule, messages, compiled));

  const core::SwitchProgram program(w.net, phase.schedule);
  const auto hw =
      sim::execute_on_hardware(w.net, phase.schedule, program, messages);
  check(obs::report_compiled(phase.schedule, messages, hw, "hardware"));

  const auto dyn =
      simulate_dynamic(w.net, w.messages, w.params, with(&w.faults));
  check(obs::report_dynamic(w.net, w.messages, dyn, w.params));

  check(obs::report_schedule(phase.schedule, &counters));
}

TEST(RunReport, SlotOccupancyMirrorsTheSchedule) {
  topo::TorusNetwork net(8, 8);
  const auto requests = patterns::ring(64);
  const auto schedule = apps::CommCompiler(net).compile(requests).schedule;
  const auto report = obs::report_schedule(schedule);

  ASSERT_EQ(report.slots.size(),
            static_cast<std::size_t>(schedule.degree()));
  int connections = 0;
  for (const auto& slot : report.slots) {
    const auto& config =
        schedule.configuration(slot.slot);
    EXPECT_EQ(slot.connections, static_cast<int>(config.size()));
    EXPECT_EQ(slot.links_used, config.used_links().size());
    EXPECT_GE(slot.utilization, 0.0);
    EXPECT_LE(slot.utilization, 1.0);
    connections += slot.connections;
  }
  EXPECT_EQ(connections, schedule.connection_count());
}

TEST(RunReport, DynamicStallCausesAccountForRetries) {
  const Workload w;
  const auto run =
      simulate_dynamic(w.net, w.messages, w.params, with(&w.faults));
  const auto report = obs::report_dynamic(w.net, w.messages, run, w.params);

  std::int64_t nack_retries = -1, timeouts = -1;
  for (const auto& stall : report.stalls) {
    if (stall.cause == "nack-retry") nack_retries = stall.count;
    if (stall.cause == "timeout") timeouts = stall.count;
  }
  EXPECT_EQ(timeouts, run.faults.timeouts);
  EXPECT_EQ(nack_retries, run.total_retries - run.faults.timeouts);
  // Largest first.
  for (std::size_t i = 1; i < report.stalls.size(); ++i)
    EXPECT_GE(report.stalls[i - 1].count, report.stalls[i].count);
}

TEST(RunReport, JsonSerializesTheSchema) {
  const Workload w;
  obs::SchedCounters counters;
  const auto phase =
      apps::CommCompiler(w.net).compile(patterns::hypercube(64), &counters);
  const auto messages = sim::uniform_messages(patterns::hypercube(64), 3);
  const auto result = sim::simulate_compiled(phase.schedule, messages);
  auto report = obs::report_compiled(phase.schedule, messages, result);
  report.sched = counters;

  std::ostringstream out;
  report.write_json(out);
  const auto json = out.str();
  EXPECT_NE(json.find("\"schema\":\"optdm-run-report/1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"engine\":\"compiled\""), std::string::npos);
  EXPECT_NE(json.find("\"links\""), std::string::npos);
  EXPECT_NE(json.find("\"sched\""), std::string::npos);
  EXPECT_NE(json.find("\"combined_winner\""), std::string::npos);
  EXPECT_EQ(json.back(), '\n');
}

TEST(SchedCounters, PhasesMeasureAndNullSkips) {
  topo::TorusNetwork net(8, 8);
  util::Rng rng(92);
  const auto requests = patterns::random_pattern(64, 200, rng);
  const apps::CommCompiler compiler(net);

  obs::SchedCounters counters;
  EXPECT_FALSE(counters.measured());
  const auto counted = compiler.compile(requests, &counters);
  const auto plain = compiler.compile(requests);

  EXPECT_TRUE(counters.measured());
  EXPECT_GE(counters.route_ns, 0);
  EXPECT_GE(counters.graph_build_ns, 0);
  EXPECT_GE(counters.coloring_ns, 0);
  EXPECT_GE(counters.aapc_ns, 0);
  EXPECT_EQ(counters.conflict_vertices,
            static_cast<std::int64_t>(requests.size()));
  EXPECT_GT(counters.conflict_edges, 0);
  EXPECT_GT(counters.coloring_passes, 0);
  EXPECT_GT(counters.aapc_degree, 0);
  EXPECT_FALSE(counters.combined_winner.empty());
  // Measurement must not change the compilation result.
  EXPECT_EQ(counted.schedule.degree(), plain.schedule.degree());
  EXPECT_EQ(counted.winner, plain.winner);
}

TEST(ChromeTrace, WritesWellFormedDocument) {
  obs::Trace trace;
  const auto lane = trace.track("node 0");
  trace.span(lane, "reserve", "reservation", 0, 6,
             {{"msg", "0"}, {"outcome", "ack\"\\\n"}});
  trace.instant(lane, "timeout", "timeout", 9);
  const auto other = trace.track("node 0");
  EXPECT_EQ(lane, other) << "tracks are get-or-create";

  std::ostringstream out;
  trace.write_chrome(out);
  const auto json = out.str();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.substr(json.size() - 3), "]}\n");
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  // The quote, backslash, and newline in the arg value must be escaped —
  // no raw control characters or unescaped quotes survive.
  EXPECT_NE(json.find("ack\\\"\\\\\\n"), std::string::npos);

  EXPECT_EQ(trace.count("reservation"), 1u);
  EXPECT_EQ(trace.total_span_slots("reservation"), 6);
}

}  // namespace
