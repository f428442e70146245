#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "apps/pipeline.hpp"
#include "apps/sweep.hpp"
#include "core/request.hpp"
#include "svc/wire.hpp"
#include "topo/torus.hpp"

/// \file api.hpp
/// The compilation service's unified client API — one request/response
/// vocabulary, two transports.
///
/// `CompileRequest` / `SimulateRequest` carry exactly the inputs the
/// in-process `apps::Pipeline` and simulators consume; `svc::Service` is
/// the interface both transports implement:
///
///  * `svc::Engine` executes requests in-process (the path
///    `optdm_compile` / `optdm_sim` take by default), sharing one
///    process-wide sharded map of pipelines — and therefore one
///    content-addressed `ScheduleCache` per (topology, scheduler) — across
///    every caller;
///  * `svc::Client` (client.hpp) serializes the same structs over the
///    wire to an `optdm_served` daemon, whose workers execute them
///    through an identical `Engine`.
///
/// Because both transports bottom out in the same `Engine` code path, a
/// daemon response is byte-identical to the local run of the same request
/// — the property the soak tests and CI pin.
///
/// A request with `want_report` set gets its `obs::RunReport` JSON back:
/// compile requests report the schedule (`obs::report_schedule`),
/// simulate requests report the compiled run (the engine-built report).
/// Requests without it build no report at all, so a warm compile is a
/// cache lookup, the per-response `validate_against` check, and the
/// response assembly.

namespace optdm::svc {

/// One compilation: the same (pattern, scheduler) pair
/// `apps::Pipeline::compile_phase` consumes, plus the substrate to
/// compile for.
struct CompileRequest {
  /// Topology spec, `topo::parse_topology_spec` vocabulary
  /// ("torus:8x8", "torus:32x32", ...).
  std::string topology = "torus:8x8";
  /// Scheduler registry name.
  std::string scheduler = "combined";
  /// The communication pattern, in request order (order is part of the
  /// compilation's identity — the greedy pass is order-sensitive).
  core::RequestSet pattern;
  /// Compile through the shared schedule cache.  Uncached requests run on
  /// a private pipeline and never touch shared state.
  bool use_cache = true;
  /// Serialize the request's RunReport JSON into the response.
  bool want_report = false;
};

/// A compiled schedule with its provenance — the wire form of
/// `apps::PhaseCompilation`.
struct CompileResponse {
  /// Multiplexing degree of the schedule.
  int degree = 0;
  /// Degree lower bound for the pattern.
  int lower_bound = 0;
  /// Winning branch of the combined scheduler; empty otherwise.
  std::string winner;
  /// Cache provenance of this compilation.
  bool cache_hit = false;
  bool disk_hit = false;
  /// Whether the serving pipeline had a cache at all.
  bool cache_enabled = true;
  /// The schedule, in `io::write_schedule` text form (exact links, so the
  /// round trip is byte-identical); reload with `io::read_schedule`
  /// against the request's topology.
  std::string schedule_text;
  /// `optdm-run-report/1` JSON of this compilation; empty unless
  /// `want_report` was set.
  std::string report_json;
};

/// One end-to-end regime comparison — what `optdm_sim` prints: compile
/// the pattern, run the compiled schedule under TDM and WDM, sweep the
/// dynamic-reservation protocol over `dynamic_ks`, and (on the paper's
/// 8x8 substrate) the static-AAPC and multihop fallbacks.
struct SimulateRequest {
  std::string topology = "torus:8x8";
  std::string scheduler = "combined";
  core::RequestSet pattern;
  bool use_cache = true;
  bool want_report = false;
  /// Message size in payload slots.
  std::int64_t slots = 4;
  /// Multiplexing degrees for the dynamic-reservation rows.
  std::vector<int> dynamic_ks = {1, 2, 5, 10};
  /// Fan the dynamic rows over forked shard workers
  /// (`apps::SweepRunner::run_sharded`); results are byte-identical at
  /// any shard count, so this only changes *where* the cells run.
  bool use_shards = false;
  apps::ShardOptions shards;
};

/// One dynamic-reservation row of the comparison.
struct DynamicRow {
  int k = 1;
  std::int64_t total_slots = 0;
  std::int64_t total_retries = 0;
  bool completed = true;
  /// True when the cell's shard was exhausted under the salvage policy.
  bool missing = false;
};

struct SimulateResponse {
  /// The compilation the run used (schedule text omitted — the simulate
  /// response carries results, not artifacts).
  CompileResponse compiled;
  /// Compiled-regime makespans.
  std::int64_t tdm_slots = 0;
  std::int64_t wdm_slots = 0;
  /// One row per requested K, in request order.
  std::vector<DynamicRow> dynamic;
  /// Paper-substrate fallback rows; present only when the topology has 64
  /// nodes (the 8x8 comparison points).
  bool has_paper_rows = false;
  std::int64_t aapc_slots = 0;
  int multihop_degree = 0;
  std::int64_t multihop_slots = 0;
  bool multihop_completed = true;
  /// Shard-supervision incidents of the dynamic sweep (all zero when
  /// `use_shards` was false or the run was healthy).
  apps::ShardSupervision supervision;
  /// Compiled-run report JSON; empty unless `want_report`.
  std::string report_json;
};

/// The one interface both transports implement.  Implementations throw
/// `util::Failure` for structured rejects (`fatal/invalid-config` for
/// parameter garbage) and may throw other exceptions for internal errors.
class Service {
 public:
  virtual ~Service() = default;
  virtual CompileResponse compile(const CompileRequest& request) = 0;
  virtual SimulateResponse simulate(const SimulateRequest& request) = 0;
};

/// In-process executor: resolves (topology, scheduler) pairs to shared
/// pipelines and runs requests on them.  Thread-safe; concurrent requests
/// against the same pair share one pipeline and one schedule cache (the
/// daemon's whole point), requests against different pairs only contend
/// on the shard holding their entry.
class Engine : public Service {
 public:
  struct Options {
    /// On-disk tier directory for the shared caches; empty = memory only.
    std::string cache_dir;
    /// In-memory LRU capacity per (topology, scheduler) cache.
    std::size_t cache_capacity = 256;
    /// Stripe count of each shared `ScheduleCache`
    /// (`ScheduleCache::Options::shards`; rounded up to a power of two).
    /// 8 keeps concurrent warm requests for different keys off each
    /// other's locks; 1 reproduces the single-lock cache.
    std::size_t cache_shards = 8;
  };

  Engine() : Engine(Options{}) {}
  explicit Engine(Options options);
  ~Engine() override;

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  CompileResponse compile(const CompileRequest& request) override;
  SimulateResponse simulate(const SimulateRequest& request) override;

  /// Aggregated schedule-cache traffic across every shared pipeline.
  apps::CacheStats cache_stats() const;

  /// Per-cache-shard traffic, summed over every shared pipeline:
  /// element i aggregates shard i of each pipeline's striped cache.  The
  /// elements sum exactly to `cache_stats()` (pinned by tests and the
  /// service smoke).  Size = the normalized `Options::cache_shards`
  /// (power of two); empty when no cached pipeline exists yet.
  std::vector<apps::CacheStats> cache_shard_stats() const;

  const Options& options() const noexcept { return options_; }

 private:
  /// One shared (topology, scheduler) pipeline.  The network must outlive
  /// the pipeline; they live and die together here.
  struct Entry {
    std::unique_ptr<topo::TorusNetwork> net;
    std::unique_ptr<apps::Pipeline> pipeline;
  };
  struct Shard {
    std::mutex mutex;
    /// Keyed by the canonical "torus:CxR|scheduler" string; values are
    /// behind unique_ptr so a resolved `Entry&` survives rehashing.
    std::unordered_map<std::string, std::unique_ptr<Entry>> entries;
  };

  /// Finds or creates the shared entry for (topology, scheduler).
  /// Throws `fatal/invalid-config` for an unknown topology or scheduler.
  Entry& resolve(const std::string& topology, const std::string& scheduler,
                 bool use_cache, std::unique_ptr<Entry>* transient);

  Options options_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace optdm::svc
