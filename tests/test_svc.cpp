// The compilation service: admission control on the job queue, the
// in-process Engine's byte-identity with the pipeline it wraps, and the
// daemon end to end — concurrent clients over real sockets, one shared
// schedule cache, structured remote rejects, clean shutdown, no leaked
// descriptors.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <functional>
#include <chrono>
#include <filesystem>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "apps/pipeline.hpp"
#include "io/pattern_io.hpp"
#include "patterns/named.hpp"
#include "svc/client.hpp"
#include "svc/queue.hpp"
#include "svc/serialize.hpp"
#include "svc/server.hpp"
#include "svc/stat_slabs.hpp"
#include "topo/torus.hpp"
#include "util/failure.hpp"
#include "util/stats.hpp"

namespace {

using namespace optdm;
using util::Failure;
using util::FailureCode;

int open_fd_count() {
  int count = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd"))
    ++count;
  return count;
}

FailureCode code_of(const std::function<void()>& call) {
  try {
    call();
  } catch (const Failure& failure) {
    return failure.code();
  }
  ADD_FAILURE() << "call did not throw util::Failure";
  return FailureCode::kInvalidConfig;
}

// -------------------------------------------------------------- job queue

TEST(JobQueue, FullQueueRejectsWithQueueFull) {
  svc::JobQueue queue(2);  // no workers: nothing drains
  queue.push(svc::Priority::kNormal, [] {});
  queue.push(svc::Priority::kNormal, [] {});
  EXPECT_EQ(queue.depth(), 2u);
  EXPECT_EQ(code_of([&] { queue.push(svc::Priority::kNormal, [] {}); }),
            FailureCode::kQueueFull);
  // The reject did not consume capacity or damage the queued jobs.
  EXPECT_EQ(queue.depth(), 2u);
  EXPECT_EQ(queue.peak_depth(), 2u);
  queue.stop(svc::JobQueue::StopMode::kAbort);
}

TEST(JobQueue, DrainsInPriorityOrderAndFifoWithinABucket) {
  svc::JobQueue queue(8);
  std::vector<std::string> order;
  queue.push(svc::Priority::kBatch, [&] { order.push_back("batch-1"); });
  queue.push(svc::Priority::kNormal, [&] { order.push_back("normal-1"); });
  queue.push(svc::Priority::kBatch, [&] { order.push_back("batch-2"); });
  queue.push(svc::Priority::kInteractive,
             [&] { order.push_back("interactive"); });
  queue.push(svc::Priority::kNormal, [&] { order.push_back("normal-2"); });
  queue.start(1);  // one worker: execution order == pop order
  queue.stop(svc::JobQueue::StopMode::kDrain);
  const std::vector<std::string> want{"interactive", "normal-1", "normal-2",
                                      "batch-1", "batch-2"};
  EXPECT_EQ(order, want);
  EXPECT_EQ(queue.depth(), 0u);
  EXPECT_EQ(queue.peak_depth(), 5u);
}

TEST(JobQueue, StoppedQueueRejectsWithDraining) {
  svc::JobQueue queue(4);
  queue.start(1);
  queue.stop(svc::JobQueue::StopMode::kDrain);
  EXPECT_EQ(code_of([&] { queue.push(svc::Priority::kNormal, [] {}); }),
            FailureCode::kSvcDraining);
}

TEST(JobQueue, AbortDropsQueuedJobs) {
  svc::JobQueue queue(4);
  std::atomic<int> ran{0};
  queue.push(svc::Priority::kNormal, [&] { ++ran; });
  queue.push(svc::Priority::kNormal, [&] { ++ran; });
  queue.stop(svc::JobQueue::StopMode::kAbort);  // workers never started
  EXPECT_EQ(ran.load(), 0);
  EXPECT_EQ(queue.depth(), 0u);
}

// ----------------------------------------------------------------- engine

TEST(SvcEngine, CompileIsByteIdenticalToTheDirectPipeline) {
  const auto pattern = patterns::ring(64);

  topo::TorusNetwork net(8, 8);
  apps::PipelineOptions pipeline_options;
  pipeline_options.scheduler = "combined";
  apps::Pipeline pipeline(net, pipeline_options);
  const auto direct = pipeline.compile_phase(pattern);
  std::ostringstream direct_text;
  io::write_schedule(direct_text, net, direct.phase.schedule);

  svc::Engine engine;
  svc::CompileRequest request;
  request.pattern = pattern;
  const auto response = engine.compile(request);
  EXPECT_EQ(response.schedule_text, direct_text.str());
  EXPECT_EQ(response.degree, direct.phase.schedule.degree());
  EXPECT_EQ(response.lower_bound, direct.phase.lower_bound);
  EXPECT_FALSE(response.cache_hit);
}

TEST(SvcEngine, RepeatedRequestsShareOneCache) {
  svc::Engine engine;
  svc::CompileRequest request;
  request.pattern = patterns::transpose(64);
  const auto cold = engine.compile(request);
  const auto warm = engine.compile(request);
  EXPECT_FALSE(cold.cache_hit);
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_FALSE(warm.disk_hit);  // memory tier
  EXPECT_EQ(warm.schedule_text, cold.schedule_text);
  const auto stats = engine.cache_stats();
  EXPECT_EQ(stats.memory_hits, 1);
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.insertions, 1);
}

TEST(SvcEngine, UncachedRequestsNeverTouchSharedState) {
  svc::Engine engine;
  svc::CompileRequest request;
  request.pattern = patterns::ring(64);
  request.use_cache = false;
  const auto response = engine.compile(request);
  EXPECT_FALSE(response.cache_enabled);
  EXPECT_FALSE(response.cache_hit);
  const auto stats = engine.cache_stats();
  EXPECT_EQ(stats.misses, 0);
  EXPECT_EQ(stats.insertions, 0);
}

TEST(SvcEngine, ParameterGarbageIsInvalidConfig) {
  svc::Engine engine;
  svc::CompileRequest compile;
  compile.pattern = patterns::ring(64);

  auto bad_topology = compile;
  bad_topology.topology = "mesh:8x8";
  EXPECT_EQ(code_of([&] { engine.compile(bad_topology); }),
            FailureCode::kInvalidConfig);

  auto bad_scheduler = compile;
  bad_scheduler.scheduler = "no-such-algorithm";
  EXPECT_EQ(code_of([&] { engine.compile(bad_scheduler); }),
            FailureCode::kInvalidConfig);

  auto bad_pattern = compile;
  bad_pattern.pattern.push_back({0, 64});  // node 64 is off an 8x8 torus
  EXPECT_EQ(code_of([&] { engine.compile(bad_pattern); }),
            FailureCode::kInvalidConfig);

  svc::SimulateRequest simulate;
  simulate.pattern = patterns::ring(64);
  simulate.slots = 0;
  EXPECT_EQ(code_of([&] { engine.simulate(simulate); }),
            FailureCode::kInvalidConfig);
}

// want_report JSON of a warm compile and of a simulate of the same
// 4-request pattern on torus:4x4, recorded from the engine that built a
// RunReport for every request.  Building reports only on demand must not
// move a byte.
constexpr const char* kWarmCompileReport =
    R"({"schema":"optdm-run-report/1","engine":"scheduler","degree":1,"total_slots":1,)"
    R"("messages":{"total":0,"delivered":0,"lost":0,"misrouted":0,"failed":0},)"
    R"("payload_link_slots":12,"protocol":{"total_retries":0,"timeouts":0,"ctrl_dropped":0,)"
    R"("payloads_lost":0},"links":[{"link":0,"busy_slots":1},{"link":2,"busy_slots":1},)"
    R"({"link":3,"busy_slots":1},{"link":4,"busy_slots":1},{"link":5,"busy_slots":1},)"
    R"({"link":7,"busy_slots":1},{"link":10,"busy_slots":1},{"link":19,"busy_slots":1},)"
    R"({"link":32,"busy_slots":1},{"link":36,"busy_slots":1},{"link":40,"busy_slots":1},)"
    R"({"link":54,"busy_slots":1}],"slots":[{"slot":0,"connections":4,"links_used":12,)"
    R"("busy_slots":12,"utilization":0.125}],"stalls":[],)"
    R"("sched":{"cache_memory_hits":1,"cache_disk_hits":0,"cache_misses":0}})"
    "\n";
constexpr const char* kSimulateReport =
    R"({"schema":"optdm-run-report/1","engine":"compiled","degree":1,"total_slots":7,)"
    R"("messages":{"total":4,"delivered":4,"lost":0,"misrouted":0,"failed":0},)"
    R"("payload_link_slots":48,"protocol":{"total_retries":0,"timeouts":0,"ctrl_dropped":0,)"
    R"("payloads_lost":0},"links":[{"link":0,"busy_slots":4},{"link":2,"busy_slots":4},)"
    R"({"link":3,"busy_slots":4},{"link":4,"busy_slots":4},{"link":5,"busy_slots":4},)"
    R"({"link":7,"busy_slots":4},{"link":10,"busy_slots":4},{"link":19,"busy_slots":4},)"
    R"({"link":32,"busy_slots":4},{"link":36,"busy_slots":4},{"link":40,"busy_slots":4},)"
    R"({"link":54,"busy_slots":4}],"slots":[{"slot":0,"connections":4,"links_used":12,)"
    R"("busy_slots":48,"utilization":0.125}],"stalls":[],)"
    R"("sched":{"cache_memory_hits":1,"cache_disk_hits":0,"cache_misses":0}})"
    "\n";

TEST(SvcEngine, WantReportJsonIsByteIdenticalToTheRecordedReports) {
  svc::Engine engine;
  svc::CompileRequest compile;
  compile.topology = "torus:4x4";
  compile.pattern = {{0, 1}, {1, 2}, {2, 3}, {5, 9}};
  compile.want_report = true;
  (void)engine.compile(compile);  // cold: its report carries timings
  const auto warm = engine.compile(compile);
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_EQ(warm.report_json, kWarmCompileReport);

  // The same schedule through a second scheduler's cache reports the same
  // document (the report describes the schedule and the cache traffic).
  compile.scheduler = "greedy";
  (void)engine.compile(compile);
  EXPECT_EQ(engine.compile(compile).report_json, kWarmCompileReport);

  svc::SimulateRequest simulate;
  simulate.topology = "torus:4x4";
  simulate.pattern = compile.pattern;
  simulate.want_report = true;
  simulate.dynamic_ks = {2};
  EXPECT_EQ(engine.simulate(simulate).report_json, kSimulateReport);

  // Without want_report no report is built or returned.
  compile.want_report = false;
  simulate.want_report = false;
  EXPECT_TRUE(engine.compile(compile).report_json.empty());
  EXPECT_TRUE(engine.simulate(simulate).report_json.empty());
}

TEST(SvcEngine, WarmCompileReadsTheSharedCacheEntry) {
  // The warm response carries the memoized entry's bytes, identical to
  // the cold response, and the cache holds one entry for the key.
  svc::Engine engine;
  svc::CompileRequest request;
  request.pattern = patterns::transpose(64);
  const auto cold = engine.compile(request);
  for (int i = 0; i < 3; ++i) {
    const auto warm = engine.compile(request);
    EXPECT_TRUE(warm.cache_hit);
    EXPECT_EQ(warm.schedule_text, cold.schedule_text);
    EXPECT_EQ(warm.winner, cold.winner);
    EXPECT_EQ(warm.lower_bound, cold.lower_bound);
  }
  EXPECT_EQ(engine.cache_stats().insertions, 1);
  EXPECT_EQ(engine.cache_stats().memory_hits, 3);
}

// ------------------------------------------------------- sharded counters

TEST(StatSlabs, BucketEdgesBracketTheirValues) {
  // Every value lands in a bucket whose edges bracket it:
  // lower < v <= upper, with upper / lower == kRatio.
  for (double ms : {0.0005, 0.001, 0.0013, 0.1, 1.0, 17.0, 900.0}) {
    const auto bucket = svc::LatencyBuckets::bucket_of(ms);
    const auto upper = svc::LatencyBuckets::upper_edge(bucket);
    EXPECT_LE(ms, upper) << ms;
    if (bucket > 0) {
      const auto lower = svc::LatencyBuckets::upper_edge(bucket - 1);
      EXPECT_GT(ms, lower) << ms;
    }
  }
  // Values beyond the table land in the overflow bucket, never out of
  // range.
  EXPECT_EQ(svc::LatencyBuckets::bucket_of(1e12),
            svc::LatencyBuckets::kBuckets);
}

TEST(StatSlabs, PercentilesAgreeWithExactNearestRankWithinOneBucket) {
  // The documented bound: for any sample of values >= 1 microsecond the
  // histogram percentile h brackets the exact nearest-rank value v as
  // v <= h < kRatio * v.  Small odd/even n included — the rank rule is
  // max(ceil(p/100 * n), 1), identical to util::percentile.
  const std::vector<std::vector<double>> samples = {
      {0.5},
      {0.002, 8.0},
      {0.1, 0.2, 0.3},
      {1.0, 2.0, 4.0, 8.0, 16.0},
      {0.004, 0.004, 0.004, 900.0},
  };
  for (const auto& sample : samples) {
    svc::ShardedServerStats stats;
    for (const double ms : sample) stats.record_latency(ms);
    ASSERT_EQ(stats.latency_count(),
              static_cast<std::int64_t>(sample.size()));
    for (const double p : {50.0, 99.0}) {
      const double exact = util::percentile(sample, p);
      const double approx = stats.latency_percentile(p);
      EXPECT_GE(approx, exact) << "p" << p << " n=" << sample.size();
      EXPECT_LT(approx, exact * svc::LatencyBuckets::kRatio)
          << "p" << p << " n=" << sample.size();
    }
  }
  // No samples: percentiles report 0, not garbage.
  svc::ShardedServerStats empty;
  EXPECT_EQ(empty.latency_percentile(50), 0.0);
}

TEST(StatSlabs, TotalsMergeAcrossThreadsAndRollbackIsExact) {
  svc::ShardedServerStats stats;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 100;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      auto& slab = stats.local();
      for (int i = 0; i < kPerThread; ++i) {
        slab.add(slab.requests);
        slab.add(slab.ok);
        stats.record_latency(0.5);
      }
      // The failed-send rollback: the last request of each thread turns
      // out not deliverable — un-count its ok, count it failed.
      slab.add(slab.ok, -1);
      slab.add(slab.failed);
    });
  }
  for (auto& thread : threads) thread.join();

  const auto totals = stats.totals();
  EXPECT_EQ(totals.requests, kThreads * kPerThread);
  EXPECT_EQ(totals.ok, kThreads * (kPerThread - 1));
  EXPECT_EQ(totals.failed, kThreads);
  EXPECT_EQ(stats.latency_count(), kThreads * kPerThread);
}

TEST(SvcSerialize, StatsWireRoundTripsPerShardHits) {
  svc::StatsWire stats;
  stats.requests = 10;
  stats.ok = 9;
  stats.cache_memory_hits = 5;
  stats.cache_disk_hits = 1;
  stats.cache_hit_rate = 0.6;
  stats.cache_shard_hits = {4, 0, 2, 0, 0, 0, 0, 0};
  stats.latency_count = 10;
  stats.latency_p50_ms = 0.5;
  stats.latency_p99_ms = 2.0;

  const auto decoded = svc::decode_stats(svc::encode(stats));
  EXPECT_EQ(decoded.requests, stats.requests);
  EXPECT_EQ(decoded.ok, stats.ok);
  EXPECT_EQ(decoded.cache_shard_hits, stats.cache_shard_hits);
  EXPECT_EQ(decoded.latency_p50_ms, stats.latency_p50_ms);

  // Empty is representable too (a daemon that served nothing yet).
  svc::StatsWire idle;
  EXPECT_TRUE(svc::decode_stats(svc::encode(idle)).cache_shard_hits.empty());
}

// ------------------------------------------------------------- end to end

struct DaemonRig {
  svc::Server server;

  DaemonRig() : server(options()) { server.start(); }
  ~DaemonRig() {
    server.request_stop();
    server.wait();
  }

  static svc::Server::Options options() {
    svc::Server::Options o;
    o.port = 0;  // ephemeral
    o.workers = 2;
    o.queue_capacity = 16;
    return o;
  }

  svc::Client client(svc::Priority priority = svc::Priority::kNormal) {
    svc::Client::Options o;
    o.port = server.port();
    o.priority = priority;
    return svc::Client(o);
  }
};

TEST(SvcServer, TwoClientsShareTheCacheAndResponsesAreByteIdentical) {
  DaemonRig rig;
  auto first = rig.client();
  auto second = rig.client(svc::Priority::kInteractive);
  first.ping();

  svc::CompileRequest request;
  request.pattern = patterns::ring(64);
  const auto cold = first.compile(request);
  const auto warm = second.compile(request);
  EXPECT_FALSE(cold.cache_hit);
  EXPECT_TRUE(warm.cache_hit);  // the first client warmed the second
  EXPECT_EQ(warm.schedule_text, cold.schedule_text);

  // One API, two transports: the daemon's response is byte-identical to
  // a local Engine run of the same request.
  svc::Engine local;
  const auto direct = local.compile(request);
  EXPECT_EQ(cold.schedule_text, direct.schedule_text);
  EXPECT_EQ(cold.degree, direct.degree);
  EXPECT_EQ(cold.winner, direct.winner);

  const auto stats = first.stats();
  EXPECT_GE(stats.requests, 2);
  EXPECT_GE(stats.ok, 2);
  EXPECT_EQ(stats.cache_memory_hits, 1);
  EXPECT_GT(stats.cache_hit_rate, 0.0);
  EXPECT_GE(stats.latency_count, 2);
}

TEST(SvcServer, PerShardHitCountersSumToTheAggregate) {
  DaemonRig rig;
  auto client = rig.client();

  // Several distinct warm keys so hits spread over multiple stripes.
  for (int round = 0; round < 2; ++round) {
    for (int shift = 1; shift <= 4; ++shift) {
      svc::CompileRequest request;
      for (int src = 0; src < 64; ++src)
        request.pattern.push_back({src, (src + shift) % 64});
      (void)client.compile(request);
    }
  }

  const auto stats = client.stats();
  EXPECT_EQ(stats.cache_misses, 4);
  EXPECT_EQ(stats.cache_memory_hits, 4);
  ASSERT_FALSE(stats.cache_shard_hits.empty());
  std::int64_t summed = 0;
  for (const auto hits : stats.cache_shard_hits) summed += hits;
  EXPECT_EQ(summed, stats.cache_memory_hits + stats.cache_disk_hits);

  // Matches the engine-side view byte for byte.
  const auto shard_stats = rig.server.engine().cache_shard_stats();
  ASSERT_EQ(shard_stats.size(), stats.cache_shard_hits.size());
  for (std::size_t i = 0; i < shard_stats.size(); ++i)
    EXPECT_EQ(shard_stats[i].hits(), stats.cache_shard_hits[i]) << i;
}

TEST(SvcServer, SimulateMatchesTheLocalEngine) {
  DaemonRig rig;
  auto client = rig.client();

  svc::SimulateRequest request;
  request.topology = "torus:4x4";
  request.pattern = patterns::ring(16);
  request.slots = 2;
  request.dynamic_ks = {1, 2};
  const auto remote = client.simulate(request);

  svc::Engine local;
  const auto direct = local.simulate(request);
  EXPECT_EQ(remote.tdm_slots, direct.tdm_slots);
  EXPECT_EQ(remote.wdm_slots, direct.wdm_slots);
  EXPECT_EQ(remote.compiled.degree, direct.compiled.degree);
  EXPECT_FALSE(remote.has_paper_rows);  // 16 nodes: no 8x8 fallback rows
  ASSERT_EQ(remote.dynamic.size(), direct.dynamic.size());
  for (std::size_t i = 0; i < remote.dynamic.size(); ++i) {
    EXPECT_EQ(remote.dynamic[i].k, direct.dynamic[i].k);
    EXPECT_EQ(remote.dynamic[i].total_slots, direct.dynamic[i].total_slots);
    EXPECT_EQ(remote.dynamic[i].total_retries,
              direct.dynamic[i].total_retries);
  }
}

TEST(SvcServer, ReportsEmittedCountsSuccessfulCompilesAndSimulates) {
  // `reports-emitted` on the stats wire keeps its meaning now that no
  // per-request report is built: one per compile or simulate that
  // completed, none for rejects.
  DaemonRig rig;
  auto client = rig.client();
  svc::CompileRequest compile;
  compile.topology = "torus:4x4";
  compile.pattern = patterns::ring(16);
  for (int i = 0; i < 3; ++i) (void)client.compile(compile);
  compile.want_report = true;
  (void)client.compile(compile);

  svc::SimulateRequest simulate;
  simulate.topology = "torus:4x4";
  simulate.pattern = patterns::ring(16);
  simulate.dynamic_ks = {1};
  (void)client.simulate(simulate);

  auto bad = compile;
  bad.scheduler = "no-such-algorithm";
  EXPECT_EQ(code_of([&] { client.compile(bad); }),
            FailureCode::kInvalidConfig);

  const auto stats = client.stats();
  EXPECT_EQ(stats.compiles, 5);
  EXPECT_EQ(stats.simulates, 1);
  EXPECT_EQ(stats.ok, 5);
  EXPECT_EQ(stats.failed, 1);
  EXPECT_EQ(stats.reports_emitted, stats.ok);
  EXPECT_EQ(stats.reports_emitted, 5);
}

TEST(SvcServer, RemoteRejectsRethrowWithTheOriginalCode) {
  DaemonRig rig;
  auto client = rig.client();
  svc::CompileRequest bad;
  bad.pattern = patterns::ring(64);
  bad.topology = "mesh:8x8";
  EXPECT_EQ(code_of([&] { client.compile(bad); }),
            FailureCode::kInvalidConfig);
  // The connection survives a request-level reject.
  client.ping();
  const auto stats = client.stats();
  EXPECT_GE(stats.failed, 1);
}

TEST(SvcServer, GarbageBytesGetAnErrorFrameNotACrash) {
  DaemonRig rig;
  // A real client first, to prove the daemon outlives the garbage below.
  auto client = rig.client();
  client.ping();

  // Hand-rolled connection speaking HTTP at the daemon: the reply is a
  // structured error frame naming the framing violation, then the daemon
  // closes that one connection and keeps serving everyone else.
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(rig.server.port());
  ASSERT_EQ(inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  // Exactly one header's worth of garbage: the daemon consumes all 16
  // bytes before closing, so its FIN (not an RST) follows the error
  // frame and both arrive intact.
  const char http[] = "GET / HTTP/1.1\r\n";
  static_assert(sizeof(http) - 1 == svc::kHeaderSize);
  ASSERT_EQ(write(fd, http, sizeof(http) - 1),
            static_cast<ssize_t>(sizeof(http) - 1));

  const auto reply = svc::read_frame(fd);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->type, svc::FrameType::kError);
  const auto error = svc::decode_error(reply->payload);
  EXPECT_EQ(error.code, "frame-garbled");
  EXPECT_EQ(svc::read_frame(fd), std::nullopt);  // daemon closed the stream
  close(fd);

  client.ping();  // the healthy connection is untouched
}

TEST(SvcServer, ConcurrentClientsAllGetIdenticalSchedules) {
  DaemonRig rig;
  constexpr int kClients = 6;
  svc::CompileRequest request;
  request.pattern = patterns::transpose(64);

  std::vector<std::string> schedules(kClients);
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int i = 0; i < kClients; ++i)
    threads.emplace_back([&, i] {
      auto client = rig.client(i % 2 == 0 ? svc::Priority::kInteractive
                                          : svc::Priority::kBatch);
      schedules[static_cast<std::size_t>(i)] =
          client.compile(request).schedule_text;
    });
  for (auto& thread : threads) thread.join();

  for (int i = 1; i < kClients; ++i)
    EXPECT_EQ(schedules[static_cast<std::size_t>(i)], schedules[0]) << i;

  // Exactly one compile was paid; everyone else hit the shared cache.
  const auto stats = rig.server.engine().cache_stats();
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.memory_hits, kClients - 1);
  EXPECT_EQ(rig.server.stats().ok, kClients);
}

TEST(SvcServer, ShutdownFrameStopsTheDaemonCleanly) {
  auto server_options = DaemonRig::options();
  svc::Server server(server_options);
  server.start();
  {
    svc::Client::Options options;
    options.port = server.port();
    svc::Client client(options);
    client.ping();
    client.shutdown_server();
  }
  server.wait();  // returns because the frame requested the stop
  // Idempotent from the local side too.
  server.request_stop();
  server.wait();
}

TEST(SvcServer, ConnectionChurnLeaksNoDescriptors) {
  DaemonRig rig;
  {
    auto warm = rig.client();  // warm thread pools and lazy state
    warm.ping();
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const int before = open_fd_count();
  for (int i = 0; i < 5; ++i) {
    auto client = rig.client();
    client.ping();
  }
  // The server reaps its side of each connection on EOF; give its reader
  // threads a moment before counting.
  int after = open_fd_count();
  for (int tries = 0; after != before && tries < 40; ++tries) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    after = open_fd_count();
  }
  EXPECT_EQ(after, before);
}

}  // namespace
