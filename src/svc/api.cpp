#include "svc/api.hpp"

#include <functional>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "aapc/torus_aapc.hpp"
#include "io/pattern_io.hpp"
#include "obs/report.hpp"
#include "patterns/named.hpp"
#include "sched/combined.hpp"
#include "sched/scheduler.hpp"
#include "sim/compiled.hpp"
#include "sim/message.hpp"
#include "sim/multihop.hpp"
#include "topo/factory.hpp"
#include "util/failure.hpp"
#include "util/hash.hpp"

namespace optdm::svc {

namespace {

using util::Failure;
using util::FailureCode;

/// Buckets the pipeline map is sharded over (lock granularity).
constexpr std::size_t kMapShards = 8;

/// Validates the request fields every kind shares; throws
/// `fatal/invalid-config` so remote callers get a structured reject.
void check_pattern(const core::RequestSet& pattern,
                   const topo::TorusNetwork& net) {
  for (const auto& request : pattern)
    if (request.src < 0 || request.src >= net.node_count() ||
        request.dst < 0 || request.dst >= net.node_count())
      throw Failure(FailureCode::kInvalidConfig,
                    "pattern references nodes outside " + net.name());
}

}  // namespace

Engine::Engine(Options options) : options_(std::move(options)) {
  shards_.reserve(kMapShards);
  for (std::size_t i = 0; i < kMapShards; ++i)
    shards_.push_back(std::make_unique<Shard>());
}

Engine::~Engine() = default;

Engine::Entry& Engine::resolve(const std::string& topology,
                               const std::string& scheduler, bool use_cache,
                               std::unique_ptr<Entry>* transient) {
  topo::TopologySpec spec;
  try {
    spec = topo::parse_topology_spec(topology);
  } catch (const std::exception& e) {
    throw Failure(FailureCode::kInvalidConfig, e.what());
  }
  if (spec.family != topo::TopologySpec::Family::kTorus)
    throw Failure(FailureCode::kInvalidConfig,
                  "the compilation service drives the torus substrate; "
                  "--topology accepts torus:CxR / torus:N");
  try {
    sched::registry().at(scheduler);  // throws listing the known names
  } catch (const std::exception& e) {
    throw Failure(FailureCode::kInvalidConfig, e.what());
  }

  auto make_entry = [&]() {
    auto entry = std::make_unique<Entry>();
    try {
      entry->net = std::make_unique<topo::TorusNetwork>(spec.cols, spec.rows);
    } catch (const std::exception& e) {
      throw Failure(FailureCode::kInvalidConfig, e.what());
    }
    apps::PipelineOptions pipeline_options;
    pipeline_options.scheduler = scheduler;
    pipeline_options.use_cache = use_cache;
    pipeline_options.cache_capacity = options_.cache_capacity;
    pipeline_options.cache_shards = options_.cache_shards;
    pipeline_options.cache_dir = use_cache ? options_.cache_dir : "";
    entry->pipeline =
        std::make_unique<apps::Pipeline>(*entry->net, pipeline_options);
    return entry;
  };

  // Uncached requests never share state — a private pipeline, no locks.
  if (!use_cache) {
    *transient = make_entry();
    return **transient;
  }

  // The canonical key normalizes spelling ("torus:8" == "torus:8x8").
  // FNV-1a, not std::hash: shard placement must be reproducible across
  // standard-library versions (the same reason cache entries use it).
  const std::string key = "torus:" + std::to_string(spec.cols) + "x" +
                          std::to_string(spec.rows) + "|" + scheduler;
  // Mixed first: raw FNV-1a low bits are weak (see util/hash.hpp).
  Shard& shard = *shards_[util::mix64(util::fnv1a64(key)) % shards_.size()];
  std::lock_guard lock(shard.mutex);
  if (const auto it = shard.entries.find(key); it != shard.entries.end())
    return *it->second;
  return *shard.entries.emplace(key, make_entry()).first->second;
}

CompileResponse Engine::compile(const CompileRequest& request) {
  std::unique_ptr<Entry> transient;
  Entry& entry =
      resolve(request.topology, request.scheduler, request.use_cache,
              &transient);
  check_pattern(request.pattern, *entry.net);

  // The counters only feed the report; without one nothing reads them.
  obs::SchedCounters counters;
  const auto compiled = entry.pipeline->compile_shared(
      request.pattern, request.want_report ? &counters : nullptr);
  // A shared, immutable cache entry: read in place, never copied.
  const apps::CachedCompilation& cached = *compiled.entry;
  const auto& schedule = cached.schedule;
  if (const auto err = schedule.validate_against(request.pattern))
    throw Failure(FailureCode::kSvcInternal,
                  "compiled schedule failed validation: " + *err);

  CompileResponse response;
  response.degree = schedule.degree();
  response.lower_bound = cached.lower_bound;
  if (request.scheduler == "combined")
    response.winner = std::string(sched::to_string(compiled.winner));
  response.cache_hit = compiled.cache_hit;
  response.disk_hit = compiled.disk_hit;
  response.cache_enabled = request.use_cache;
  if (!cached.schedule_text.empty()) {
    // The cache memoized this exact serialization at store time,
    // byte-identical to serializing afresh.
    response.schedule_text = cached.schedule_text;
  } else {
    // Uncached request: nothing memoized the text.
    std::ostringstream out;
    io::write_schedule(out, *entry.net, schedule);
    response.schedule_text = out.str();
  }

  if (request.want_report) {
    std::ostringstream out;
    obs::report_schedule(schedule, &counters).write_json(out);
    response.report_json = out.str();
  }
  return response;
}

SimulateResponse Engine::simulate(const SimulateRequest& request) {
  std::unique_ptr<Entry> transient;
  Entry& entry =
      resolve(request.topology, request.scheduler, request.use_cache,
              &transient);
  const topo::TorusNetwork& net = *entry.net;
  check_pattern(request.pattern, net);
  if (request.slots < 1)
    throw Failure(FailureCode::kInvalidConfig, "slots must be positive");
  if (request.use_shards && request.shards.shards < 1)
    throw Failure(FailureCode::kInvalidConfig, "shards must be positive");

  const auto messages = sim::uniform_messages(request.pattern, request.slots);

  // As in `compile`, the counters only feed the report.
  obs::SchedCounters counters;
  const auto compiled = entry.pipeline->compile_shared(
      request.pattern, request.want_report ? &counters : nullptr);
  const auto& schedule = compiled.entry->schedule;

  SimulateResponse response;
  response.compiled.degree = schedule.degree();
  response.compiled.lower_bound = compiled.entry->lower_bound;
  if (request.scheduler == "combined")
    response.compiled.winner = std::string(sched::to_string(compiled.winner));
  response.compiled.cache_hit = compiled.cache_hit;
  response.compiled.disk_hit = compiled.disk_hit;
  response.compiled.cache_enabled = request.use_cache;

  // The engine builds the compiled run's report through the SimOptions
  // path, only when asked; report construction never changes results
  // (null-sink byte-identity is pinned by the observability tests).
  obs::CapturingReportSink report_sink;
  sim::SimOptions sim_options;
  if (request.want_report) {
    sim_options.counters = &counters;
    sim_options.report = &report_sink;
  }
  const auto tdm =
      sim::simulate_compiled(schedule, messages, {}, sim_options);
  response.tdm_slots = tdm.total_slots;

  sim::CompiledParams wdm;
  wdm.channel = sim::ChannelKind::kWavelength;
  const auto cw = sim::simulate_compiled(schedule, messages, wdm);
  response.wdm_slots = cw.total_slots;

  // The dynamic-reservation rows run as a sweep grid (one phase, one
  // variant per K, healthy fabric), so `use_shards` can fan them over
  // forked workers; the merge is byte-identical at any shard count.
  apps::SweepGrid grid;
  apps::CommPhase phase;
  phase.name = "cli";
  phase.messages = messages;
  grid.phases.push_back(std::move(phase));
  for (const int k : request.dynamic_ks) {
    apps::DynamicVariant variant;
    variant.label = "K=" + std::to_string(k);
    variant.params.multiplexing_degree = k;
    grid.dynamic.push_back(std::move(variant));
  }
  apps::SweepOptions sweep_options;
  sweep_options.run_compiled = false;  // compiled rows above
  apps::SweepRunner runner(net, sweep_options);
  const auto sweep = request.use_shards
                         ? runner.run_sharded(grid, request.shards)
                         : runner.run(grid);

  response.supervision = sweep.supervision;

  for (std::size_t v = 0; v < grid.dynamic.size(); ++v) {
    const auto& cell = sweep.dynamic_cell(0, 0, v);
    DynamicRow row;
    row.k = grid.dynamic[v].params.multiplexing_degree;
    if (cell.missing) {
      row.missing = true;
    } else {
      row.total_slots = cell.result.total_slots;
      row.total_retries = cell.result.total_retries;
      row.completed = cell.result.completed;
    }
    response.dynamic.push_back(row);
  }

  // The preloaded AAPC frame and hypercube embedding are the paper's
  // 8x8 comparison points; skip them on the scale substrates.
  if (net.node_count() == 64) {
    response.has_paper_rows = true;
    const aapc::TorusAapc aapc(net);
    const auto fallback =
        sim::simulate_compiled(aapc.full_schedule(), messages);
    response.aapc_slots = fallback.total_slots;

    const auto embedding =
        sched::combined(net, patterns::hypercube(net.node_count()));
    const auto hop = sim::simulate_multihop(embedding, messages,
                                            sim::hypercube_next_hop);
    response.multihop_degree = embedding.degree();
    response.multihop_slots = hop.total_slots;
    response.multihop_completed = hop.completed;
  }

  if (request.want_report) {
    // The report's sched block is refreshed from the final counters:
    // shard-supervision incidents land after the report was captured.
    const auto& sup = sweep.supervision;
    if (sup.retries > 0 || sup.salvaged_cells > 0) {
      counters.shard_retries = sup.retries;
      counters.shard_restarts_crashed = sup.restarts_crashed;
      counters.shard_restarts_hung = sup.restarts_hung;
      counters.shard_restarts_corrupt = sup.restarts_corrupt;
      counters.salvaged_cells = sup.salvaged_cells;
    }
    obs::RunReport report = report_sink.last();
    report.sched = counters;
    std::ostringstream out;
    report.write_json(out);
    response.report_json = out.str();
  }
  return response;
}

apps::CacheStats Engine::cache_stats() const {
  apps::CacheStats total;
  for (const auto& shard : shards_) {
    std::lock_guard lock(shard->mutex);
    for (const auto& [key, entry] : shard->entries)
      if (const auto* cache = entry->pipeline->cache()) total += cache->stats();
  }
  return total;
}

std::vector<apps::CacheStats> Engine::cache_shard_stats() const {
  std::vector<apps::CacheStats> per_shard;
  for (const auto& shard : shards_) {
    std::lock_guard lock(shard->mutex);
    for (const auto& [key, entry] : shard->entries) {
      const auto* cache = entry->pipeline->cache();
      if (!cache) continue;
      if (per_shard.size() < cache->shard_count())
        per_shard.resize(cache->shard_count());
      for (std::size_t i = 0; i < cache->shard_count(); ++i)
        per_shard[i] += cache->shard_stats(i);
    }
  }
  return per_shard;
}

}  // namespace optdm::svc
