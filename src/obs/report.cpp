#include "obs/report.hpp"

#include <algorithm>
#include <map>
#include <ostream>
#include <stdexcept>

#include "core/path.hpp"
#include "obs/json.hpp"

namespace optdm::obs {

namespace {

/// Accumulates per-link busy slots into a sparse map and converts to the
/// report's sorted, zero-free vector.
std::vector<LinkUsage> to_link_usage(const std::map<int, std::int64_t>& busy) {
  std::vector<LinkUsage> out;
  out.reserve(busy.size());
  for (const auto& [link, slots] : busy)
    if (slots > 0) out.push_back(LinkUsage{link, slots});
  return out;
}

void count_outcomes(RunReport& report,
                    std::span<const sim::CompiledMessageStats> stats) {
  for (const auto& s : stats) {
    switch (s.outcome) {
      case sim::MessageOutcome::kDelivered: ++report.delivered; break;
      case sim::MessageOutcome::kLost: ++report.lost; break;
      case sim::MessageOutcome::kMisrouted: ++report.misrouted; break;
      case sim::MessageOutcome::kFailed: ++report.failed; break;
    }
  }
}

void sort_stalls(std::vector<StallCause>& stalls) {
  std::stable_sort(stalls.begin(), stalls.end(),
                   [](const StallCause& a, const StallCause& b) {
                     return a.count > b.count;
                   });
}

}  // namespace

RunReport report_compiled(const core::Schedule& schedule,
                          std::span<const sim::Message> messages,
                          const sim::CompiledResult& result,
                          std::string engine) {
  if (messages.size() != result.messages.size())
    throw std::invalid_argument(
        "report_compiled: messages/result size mismatch");
  RunReport report;
  report.engine = std::move(engine);
  report.degree = result.degree;
  report.total_slots = result.total_slots;
  report.messages_total = static_cast<std::int64_t>(messages.size());
  count_outcomes(report, result.messages);
  report.timeouts = result.faults.timeouts;
  report.ctrl_dropped = result.faults.ctrl_dropped;
  report.payloads_lost = result.faults.payloads_lost;

  std::map<int, std::int64_t> busy;
  std::vector<std::int64_t> slot_busy(
      static_cast<std::size_t>(std::max(schedule.degree(), 1)), 0);
  for (std::size_t i = 0; i < messages.size(); ++i) {
    const auto& stats = result.messages[i];
    if (stats.slot < 0) continue;  // never scheduled (kFailed)
    const auto& config = schedule.configuration(stats.slot);
    const core::Path* path = nullptr;
    for (const auto& p : config.paths())
      if (p.request == messages[i].request) { path = &p; break; }
    if (!path)
      throw std::invalid_argument(
          "report_compiled: message request not in its slot's configuration");
    const auto link_slots =
        messages[i].slots * static_cast<std::int64_t>(path->links.size());
    for (const auto link : path->links) busy[static_cast<int>(link)] += messages[i].slots;
    report.payload_link_slots += link_slots;
    slot_busy[static_cast<std::size_t>(stats.slot)] += link_slots;
  }
  report.links = to_link_usage(busy);

  for (int slot = 0; slot < schedule.degree(); ++slot) {
    const auto& config = schedule.configuration(slot);
    SlotOccupancy occ;
    occ.slot = slot;
    occ.connections = static_cast<int>(config.size());
    occ.links_used = config.used_links().size();
    occ.busy_slots = slot_busy[static_cast<std::size_t>(slot)];
    const int universe = config.used_links().universe_size();
    occ.utilization =
        universe > 0 ? static_cast<double>(occ.links_used) / universe : 0.0;
    report.slots.push_back(occ);
  }

  if (report.payloads_lost > 0)
    report.stalls.push_back(
        StallCause{"payload-loss", report.payloads_lost, -1});
  return report;
}

RunReport report_dynamic(const topo::Network& net,
                         std::span<const sim::Message> messages,
                         const sim::DynamicResult& result,
                         const sim::DynamicParams& params) {
  if (messages.size() != result.messages.size())
    throw std::invalid_argument("report_dynamic: messages/result size mismatch");
  RunReport report;
  report.engine = "dynamic";
  report.degree = params.multiplexing_degree;
  report.total_slots = result.total_slots;
  report.messages_total = static_cast<std::int64_t>(messages.size());
  report.total_retries = result.total_retries;
  report.timeouts = result.faults.timeouts;
  report.ctrl_dropped = result.faults.ctrl_dropped;
  report.payloads_lost = result.faults.payloads_lost;

  std::map<int, std::int64_t> busy;
  std::int64_t established_count = 0;
  std::int64_t establishment_wait = 0;
  for (std::size_t i = 0; i < messages.size(); ++i) {
    const auto& stats = result.messages[i];
    switch (stats.outcome) {
      case sim::MessageOutcome::kDelivered: ++report.delivered; break;
      case sim::MessageOutcome::kLost: ++report.lost; break;
      case sim::MessageOutcome::kMisrouted: ++report.misrouted; break;
      case sim::MessageOutcome::kFailed: ++report.failed; break;
    }
    if (stats.established < 0) continue;  // never got a connection
    ++established_count;
    if (stats.issued >= 0) establishment_wait += stats.established - stats.issued;
    const auto path = core::make_path(net, messages[i].request);
    for (const auto link : path.links)
      busy[static_cast<int>(link)] += messages[i].slots;
    report.payload_link_slots +=
        messages[i].slots * static_cast<std::int64_t>(path.links.size());
  }
  report.links = to_link_usage(busy);

  if (report.total_retries - report.timeouts > 0)
    report.stalls.push_back(
        StallCause{"nack-retry", report.total_retries - report.timeouts, -1});
  if (report.timeouts > 0)
    report.stalls.push_back(StallCause{"timeout", report.timeouts, -1});
  if (report.ctrl_dropped > 0)
    report.stalls.push_back(StallCause{"ctrl-drop", report.ctrl_dropped, -1});
  if (established_count > 0)
    report.stalls.push_back(StallCause{"establishment-wait", established_count,
                                       establishment_wait});
  if (report.payloads_lost > 0)
    report.stalls.push_back(
        StallCause{"payload-loss", report.payloads_lost, -1});
  sort_stalls(report.stalls);
  return report;
}

RunReport report_schedule(const core::Schedule& schedule,
                          const SchedCounters* counters) {
  RunReport report;
  report.engine = "scheduler";
  report.degree = schedule.degree();
  report.total_slots = schedule.degree();

  std::map<int, std::int64_t> busy;
  for (int slot = 0; slot < schedule.degree(); ++slot) {
    const auto& config = schedule.configuration(slot);
    SlotOccupancy occ;
    occ.slot = slot;
    occ.connections = static_cast<int>(config.size());
    occ.links_used = config.used_links().size();
    // One frame: every lit link is busy for exactly its slot.
    occ.busy_slots = occ.links_used;
    const int universe = config.used_links().universe_size();
    occ.utilization =
        universe > 0 ? static_cast<double>(occ.links_used) / universe : 0.0;
    report.slots.push_back(occ);
    for (const auto& path : config.paths())
      for (const auto link : path.links) busy[static_cast<int>(link)] += 1;
    report.payload_link_slots += occ.links_used;
  }
  report.links = to_link_usage(busy);
  if (counters) report.sched = *counters;
  return report;
}

namespace {

void write_sched(std::ostream& out, const SchedCounters& c) {
  out << "\"sched\":{";
  bool first = true;
  const auto field = [&](const char* name, std::int64_t value) {
    if (value < 0) return;
    if (!first) out << ',';
    first = false;
    out << '"' << name << "\":" << value;
  };
  field("route_ns", c.route_ns);
  field("graph_build_ns", c.graph_build_ns);
  field("coloring_ns", c.coloring_ns);
  field("aapc_ns", c.aapc_ns);
  field("greedy_ns", c.greedy_ns);
  field("conflict_vertices", c.conflict_vertices);
  field("conflict_edges", c.conflict_edges);
  field("coloring_passes", c.coloring_passes);
  field("greedy_passes", c.greedy_passes);
  field("greedy_rejections", c.greedy_rejections);
  field("coloring_degree", c.coloring_degree);
  field("aapc_degree", c.aapc_degree);
  field("greedy_degree", c.greedy_degree);
  field("cache_memory_hits", c.cache_memory_hits);
  field("cache_disk_hits", c.cache_disk_hits);
  field("cache_misses", c.cache_misses);
  field("distinct_phases", c.distinct_phases);
  field("reconfigurations_saved", c.reconfigurations_saved);
  field("reconfig_slots_paid", c.reconfig_slots_paid);
  field("reuse_decisions", c.reuse_decisions);
  field("reuse_kept_stale", c.reuse_kept_stale);
  field("reconfig_stall_slots", c.reconfig_stall_slots);
  field("reconfig_overlap_hidden", c.reconfig_overlap_hidden);
  field("shard_retries", c.shard_retries);
  field("shard_restarts_crashed", c.shard_restarts_crashed);
  field("shard_restarts_hung", c.shard_restarts_hung);
  field("shard_restarts_corrupt", c.shard_restarts_corrupt);
  field("salvaged_cells", c.salvaged_cells);
  field("cache_quarantined", c.cache_quarantined);
  field("livelock_retries_per_message", c.livelock_retries_per_message);
  if (!c.combined_winner.empty()) {
    if (!first) out << ',';
    out << "\"combined_winner\":\"" << json_escape(c.combined_winner) << '"';
  }
  out << '}';
}

}  // namespace

void RunReport::write_json(std::ostream& out) const {
  out << "{\"schema\":\"" << kSchema << "\",";
  out << "\"engine\":\"" << json_escape(engine) << "\",";
  out << "\"degree\":" << degree << ",";
  out << "\"total_slots\":" << total_slots << ",";
  out << "\"messages\":{\"total\":" << messages_total
      << ",\"delivered\":" << delivered << ",\"lost\":" << lost
      << ",\"misrouted\":" << misrouted << ",\"failed\":" << failed << "},";
  out << "\"payload_link_slots\":" << payload_link_slots << ",";
  out << "\"protocol\":{\"total_retries\":" << total_retries
      << ",\"timeouts\":" << timeouts << ",\"ctrl_dropped\":" << ctrl_dropped
      << ",\"payloads_lost\":" << payloads_lost << "},";
  out << "\"links\":[";
  for (std::size_t i = 0; i < links.size(); ++i) {
    if (i > 0) out << ',';
    out << "{\"link\":" << links[i].link
        << ",\"busy_slots\":" << links[i].busy_slots << '}';
  }
  out << "],\"slots\":[";
  for (std::size_t i = 0; i < slots.size(); ++i) {
    if (i > 0) out << ',';
    const auto& s = slots[i];
    out << "{\"slot\":" << s.slot << ",\"connections\":" << s.connections
        << ",\"links_used\":" << s.links_used
        << ",\"busy_slots\":" << s.busy_slots << ",\"utilization\":"
        << s.utilization << '}';
  }
  out << "],\"stalls\":[";
  for (std::size_t i = 0; i < stalls.size(); ++i) {
    if (i > 0) out << ',';
    out << "{\"cause\":\"" << json_escape(stalls[i].cause)
        << "\",\"count\":" << stalls[i].count
        << ",\"slots\":" << stalls[i].slots << '}';
  }
  out << ']';
  if (reconfigurations_saved >= 0)
    out << ",\"reconfigurations_saved\":" << reconfigurations_saved;
  if (sched.measured()) {
    out << ',';
    write_sched(out, sched);
  }
  out << "}\n";
}

}  // namespace optdm::obs
