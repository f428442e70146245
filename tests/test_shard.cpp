// Tests for SweepRunner::run_sharded — byte-identical merges at every
// shard count, fork interplay with a live thread pool, and the
// supervision contract: injected kills/hangs/garbles (via the
// OPTDM_CHAOS hook) are absorbed by the retry budget with a
// byte-identical merge, exhaustion either fails structured or salvages
// with cells marked missing, and no file descriptors leak.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <string>

#include "apps/sweep.hpp"
#include "apps/workloads.hpp"
#include "patterns/random.hpp"
#include "sim/dynamic.hpp"
#include "topo/torus.hpp"
#include "util/failure.hpp"
#include "util/rng.hpp"

namespace {

using namespace optdm;

apps::SweepGrid shard_grid() {
  apps::SweepGrid grid;
  util::Rng rng(21);
  for (int i = 0; i < 2; ++i) {
    apps::CommPhase phase;
    phase.name = "random-" + std::to_string(i);
    phase.messages =
        sim::uniform_messages(patterns::random_pattern(64, 48, rng), 3);
    grid.phases.push_back(std::move(phase));
  }
  for (const int k : {2, 5}) {
    apps::DynamicVariant variant;
    variant.label = "K=" + std::to_string(k);
    variant.params.multiplexing_degree = k;
    grid.dynamic.push_back(std::move(variant));
  }
  grid.faults = {
      {"none", {}},
      {"faulty", {0.02, 0.05, 1024, 256, 0.05, false, 0xfa017}},
  };
  grid.seeds = {7, 8};
  // A two-level reconfig axis so the shard wire format's reconfig
  // coordinate (v3) is exercised by every merge in this file.
  grid.reconfig = {{"R=0", {}}, {"R=4+ov", {.latency = 4, .overlap = true}}};
  return grid;
}

void digest_cell(std::ostream& out, const apps::CompiledCell& cell) {
  out << 'c' << cell.phase << ',' << cell.fault << ',' << cell.reconfig
      << ',' << cell.degree << ','
      << cell.cache_hit << ',' << cell.missing << ','
      << cell.result.total_slots << ',' << cell.result.degree << ','
      << cell.result.faults.payloads_lost << ','
      << cell.result.faults.messages_lost << ';';
  for (const auto& m : cell.result.messages)
    out << m.slot << ',' << m.completed << ',' << m.payloads_lost << '|';
}

void digest_cell(std::ostream& out, const apps::DynamicCell& cell) {
  out << 'd' << cell.phase << ',' << cell.fault << ',' << cell.variant << ','
      << cell.seed << ',' << cell.missing << ',' << cell.result.total_slots
      << ',' << cell.result.total_retries << ',' << cell.result.completed
      << ',' << cell.result.clean_shutdown << ',' << cell.result.livelock
      << ',' << cell.result.faults.ctrl_dropped << ','
      << cell.result.faults.messages_failed << ';';
  for (const auto& m : cell.result.messages)
    out << m.issued << ',' << m.established << ',' << m.completed << ','
        << m.retries << ',' << m.timeouts << ',' << m.slot << '|';
}

/// Serializes every observable of a sweep into one string; two sweeps
/// are byte-identical iff their digests match.  Message-level stats are
/// included on both sides so a shard-boundary mixup cannot hide.
std::string digest(const apps::SweepResult& sweep) {
  std::ostringstream out;
  out << sweep.fault_count << '/' << sweep.variant_count << '/'
      << sweep.seed_count << ';';
  for (const auto& cell : sweep.compiled) digest_cell(out, cell);
  for (const auto& cell : sweep.dynamic) digest_cell(out, cell);
  return out.str();
}

/// Scoped OPTDM_CHAOS setting; unset on destruction so an aborted test
/// cannot poison its successors.
struct ChaosEnv {
  explicit ChaosEnv(const char* spec) { ::setenv("OPTDM_CHAOS", spec, 1); }
  ~ChaosEnv() { ::unsetenv("OPTDM_CHAOS"); }
};

/// Open descriptors of this process.  The iterator's own fd is included,
/// but identically on every call, so equality comparisons are exact.
int open_fd_count() {
  int count = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd"))
    ++count;
  return count;
}

std::string serial_digest(const topo::TorusNetwork& net,
                          const apps::SweepGrid& grid) {
  apps::SweepRunner runner(net);
  return digest(runner.run(grid));
}

TEST(Shard, ByteIdenticalAtEveryShardCount) {
  const auto grid = shard_grid();
  topo::TorusNetwork net(8, 8);

  // Fresh runner per variant so the schedule-cache provenance (cold
  // compiles everywhere) is identical across the comparison.
  const auto baseline = serial_digest(net, grid);
  ASSERT_FALSE(baseline.empty());

  for (const int shards : {1, 2, 4, 7}) {
    apps::SweepRunner runner(net);
    const auto sharded =
        runner.run_sharded(grid,
                           apps::ShardOptions{.shards = shards, .policy = {}});
    EXPECT_EQ(digest(sharded), baseline) << "shards=" << shards;
    EXPECT_EQ(sharded.supervision.retries, 0) << "shards=" << shards;
  }
}

TEST(Shard, MoreShardsThanCellsStillMerges) {
  apps::SweepGrid grid;
  util::Rng rng(31);
  apps::CommPhase phase;
  phase.name = "tiny";
  phase.messages =
      sim::uniform_messages(patterns::random_pattern(64, 20, rng), 2);
  grid.phases.push_back(std::move(phase));

  topo::TorusNetwork net(8, 8);
  const auto baseline = serial_digest(net, grid);
  // One compiled cell, zero dynamic cells, eight shards: seven workers
  // own empty ranges and must still report cleanly.
  apps::SweepRunner runner(net);
  const auto sharded =
      runner.run_sharded(grid, apps::ShardOptions{.shards = 8, .policy = {}});
  EXPECT_EQ(digest(sharded), baseline);
}

TEST(Shard, ForksCleanlyAfterThePoolIsLive) {
  // A prior run() spins up the worker-thread pool; the fork in
  // run_sharded must not deadlock on (or touch) the pool the children
  // inherit.  Both runners see the same two run calls, so the warm-cache
  // provenance of the second is identical too.
  const auto grid = shard_grid();
  topo::TorusNetwork net(8, 8);

  apps::SweepRunner serial(net);
  (void)serial.run(grid);
  const auto baseline = digest(serial.run(grid));

  apps::SweepRunner sharded(net);
  (void)sharded.run(grid);
  const auto merged =
      digest(sharded.run_sharded(
          grid, apps::ShardOptions{.shards = 4, .policy = {}}));
  EXPECT_EQ(merged, baseline);
}

TEST(Shard, KilledWorkerIsReforkedByteIdentically) {
  // SIGKILL mid-stream on shard 1's first attempt — cell 8 sits inside
  // shard 1's range [7, 14) of the 20-cell grid at 3 shards, so the
  // worker dies after streaming one progress frame.  The supervisor must
  // re-fork it and the merge must not betray that anything happened.
  const auto grid = shard_grid();
  topo::TorusNetwork net(8, 8);
  const auto baseline = serial_digest(net, grid);

  ChaosEnv chaos("kill:shard=1:cell=8");
  apps::SweepRunner runner(net);
  const auto sharded =
      runner.run_sharded(grid, apps::ShardOptions{.shards = 3, .policy = {}});
  EXPECT_EQ(digest(sharded), baseline);
  EXPECT_EQ(sharded.supervision.retries, 1);
  EXPECT_EQ(sharded.supervision.restarts_crashed, 1);
  EXPECT_EQ(sharded.supervision.restarts_hung, 0);
  EXPECT_EQ(sharded.supervision.restarts_corrupt, 0);
  EXPECT_EQ(sharded.supervision.salvaged_cells, 0);
}

TEST(Shard, HungWorkerTripsTheDeadlineAndIsReforked) {
  // Shard 1 wedges in pause() on its first attempt; with a progress
  // deadline armed the supervisor SIGKILLs and re-forks it.  The deadline
  // is wall-clock per *cell* (workers heartbeat after every cell), so
  // this test uses a small healthy grid whose slowest cell finishes in
  // milliseconds — the big shard_grid() has contended cells that take
  // seconds and would trip a tight deadline legitimately.
  apps::SweepGrid grid;
  util::Rng rng(41);
  apps::CommPhase phase;
  phase.name = "small";
  phase.messages =
      sim::uniform_messages(patterns::random_pattern(64, 24, rng), 2);
  grid.phases.push_back(std::move(phase));
  apps::DynamicVariant variant;
  variant.label = "K=2";
  variant.params.multiplexing_degree = 2;
  grid.dynamic.push_back(std::move(variant));

  topo::TorusNetwork net(8, 8);
  const auto baseline = serial_digest(net, grid);

  ChaosEnv chaos("hang:shard=1");
  apps::ShardOptions options;
  options.shards = 2;
  options.policy.deadline_ms = 300;
  apps::SweepRunner runner(net);
  const auto sharded = runner.run_sharded(grid, options);
  EXPECT_EQ(digest(sharded), baseline);
  EXPECT_EQ(sharded.supervision.retries, 1);
  EXPECT_EQ(sharded.supervision.restarts_hung, 1);
  EXPECT_EQ(sharded.supervision.restarts_crashed, 0);
  EXPECT_EQ(sharded.supervision.salvaged_cells, 0);
}

TEST(Shard, GarbledStreamIsRejectedAndReforked) {
  // Shard 0 exits cleanly after writing a seeded-garbage result frame:
  // only stream validation can catch it, and nothing from the garbage
  // attempt may reach the merge.
  const auto grid = shard_grid();
  topo::TorusNetwork net(8, 8);
  const auto baseline = serial_digest(net, grid);

  ChaosEnv chaos("garble:shard=0:seed=99");
  apps::SweepRunner runner(net);
  const auto sharded =
      runner.run_sharded(grid, apps::ShardOptions{.shards = 3, .policy = {}});
  EXPECT_EQ(digest(sharded), baseline);
  EXPECT_EQ(sharded.supervision.retries, 1);
  EXPECT_EQ(sharded.supervision.restarts_corrupt, 1);
  EXPECT_EQ(sharded.supervision.salvaged_cells, 0);
}

TEST(Shard, ExhaustedBudgetFailsStructured) {
  // Every attempt of shard 1 dies; with the default kFail policy the
  // sweep must raise a util::Failure carrying kShardExhausted.
  const auto grid = shard_grid();
  topo::TorusNetwork net(8, 8);

  ChaosEnv chaos("kill:shard=1:attempt=all");
  apps::ShardOptions options;
  options.shards = 3;
  options.policy.max_retries = 1;
  options.policy.backoff_ms = 1;
  apps::SweepRunner runner(net);
  try {
    (void)runner.run_sharded(grid, options);
    FAIL() << "an exhausted shard must raise under kFail";
  } catch (const util::Failure& e) {
    EXPECT_EQ(e.code(), util::FailureCode::kShardExhausted);
    EXPECT_EQ(e.category(), util::FailureCategory::kFatal);
    EXPECT_FALSE(e.retryable());
    const std::string what = e.what();
    EXPECT_NE(what.find("shard 1"), std::string::npos) << what;
  }

  // The runner (and its schedule cache) survive the failed attempt; a
  // healthy retry produces the full, byte-identical result.  A second
  // runner replays the same two-sweep history so the warm-cache
  // provenance matches.
  ::unsetenv("OPTDM_CHAOS");
  const auto healthy = runner.run_sharded(grid, apps::ShardOptions{});
  apps::SweepRunner replay(net);
  (void)replay.run(grid);
  EXPECT_EQ(digest(healthy), digest(replay.run(grid)));
}

TEST(Shard, SalvagePolicyMarksTheLostCellsMissing) {
  const auto grid = shard_grid();
  topo::TorusNetwork net(8, 8);

  apps::SweepResult serial;
  {
    apps::SweepRunner runner(net);
    serial = runner.run(grid);
  }

  ChaosEnv chaos("kill:shard=1:attempt=all");
  apps::ShardOptions options;
  options.shards = 4;
  options.policy.max_retries = 1;
  options.policy.backoff_ms = 1;
  options.policy.on_exhaustion = apps::ShardExhaustion::kSalvage;
  apps::SweepRunner runner(net);
  const auto salvaged = runner.run_sharded(grid, options);

  // The lost shard's cells are marked, counted, and carry their grid
  // coordinates; every surviving cell is byte-identical to the serial
  // run.
  ASSERT_EQ(salvaged.compiled.size(), serial.compiled.size());
  ASSERT_EQ(salvaged.dynamic.size(), serial.dynamic.size());
  std::int64_t missing = 0;
  for (std::size_t i = 0; i < salvaged.compiled.size(); ++i) {
    const auto& cell = salvaged.compiled[i];
    if (cell.missing) {
      ++missing;
      EXPECT_EQ(cell.phase, serial.compiled[i].phase);
      EXPECT_EQ(cell.fault, serial.compiled[i].fault);
      EXPECT_EQ(cell.reconfig, serial.compiled[i].reconfig);
      continue;
    }
    std::ostringstream got, want;
    digest_cell(got, cell);
    digest_cell(want, serial.compiled[i]);
    EXPECT_EQ(got.str(), want.str()) << "compiled cell " << i;
  }
  for (std::size_t i = 0; i < salvaged.dynamic.size(); ++i) {
    const auto& cell = salvaged.dynamic[i];
    if (cell.missing) {
      ++missing;
      EXPECT_EQ(cell.phase, serial.dynamic[i].phase);
      EXPECT_EQ(cell.fault, serial.dynamic[i].fault);
      EXPECT_EQ(cell.variant, serial.dynamic[i].variant);
      EXPECT_EQ(cell.seed, serial.dynamic[i].seed);
      continue;
    }
    std::ostringstream got, want;
    digest_cell(got, cell);
    digest_cell(want, serial.dynamic[i]);
    EXPECT_EQ(got.str(), want.str()) << "dynamic cell " << i;
  }
  EXPECT_GT(missing, 0);
  EXPECT_EQ(salvaged.supervision.salvaged_cells, missing);
  EXPECT_GE(salvaged.supervision.retries, 1);
}

TEST(Shard, NoFileDescriptorLeaksOnAnyPath) {
  const auto grid = shard_grid();
  topo::TorusNetwork net(8, 8);
  apps::SweepRunner runner(net);
  // Warm everything fd-related once (thread pool, schedule cache) so the
  // counted window covers only run_sharded's own pipes.
  (void)runner.run_sharded(grid, apps::ShardOptions{.shards = 2, .policy = {}});

  const int before = open_fd_count();
  // Healthy path.
  (void)runner.run_sharded(grid, apps::ShardOptions{.shards = 4, .policy = {}});
  EXPECT_EQ(open_fd_count(), before);
  // Retry path (a worker dies and is re-forked).
  {
    ChaosEnv chaos("kill:shard=1");
    (void)runner.run_sharded(grid,
                             apps::ShardOptions{.shards = 3, .policy = {}});
  }
  EXPECT_EQ(open_fd_count(), before);
  // Failure path (exhaustion throws; every pipe must still be closed and
  // every worker reaped).
  {
    ChaosEnv chaos("kill:shard=0:attempt=all");
    apps::ShardOptions options;
    options.shards = 3;
    options.policy.max_retries = 0;
    EXPECT_THROW((void)runner.run_sharded(grid, options), util::Failure);
  }
  EXPECT_EQ(open_fd_count(), before);
}

TEST(Shard, InvalidConfigurationsAreRejected) {
  const auto grid = shard_grid();
  topo::TorusNetwork net(8, 8);
  const auto expect_invalid = [&](apps::SweepRunner& runner,
                                  const apps::ShardOptions& options) {
    try {
      (void)runner.run_sharded(grid, options);
      FAIL() << "configuration garbage must raise";
    } catch (const util::Failure& e) {
      EXPECT_EQ(e.code(), util::FailureCode::kInvalidConfig);
      EXPECT_EQ(e.category(), util::FailureCategory::kFatal);
    }
  };
  {
    apps::SweepRunner runner(net);
    expect_invalid(runner, apps::ShardOptions{.shards = 0, .policy = {}});
    expect_invalid(runner, apps::ShardOptions{.shards = -2, .policy = {}});
    apps::ShardOptions negative_retries;
    negative_retries.shards = 2;
    negative_retries.policy.max_retries = -1;
    expect_invalid(runner, negative_retries);
    apps::ShardOptions negative_deadline;
    negative_deadline.shards = 2;
    negative_deadline.policy.deadline_ms = -5;
    expect_invalid(runner, negative_deadline);
  }
  {
    apps::SweepOptions options;
    options.recovery = true;
    apps::SweepRunner runner(net, options);
    expect_invalid(runner, apps::ShardOptions{});
  }
}

TEST(Shard, MalformedChaosSpecsAreRejected) {
  const auto grid = shard_grid();
  topo::TorusNetwork net(8, 8);
  apps::SweepRunner runner(net);
  for (const char* spec : {"explode:shard=1", "kill", "kill:shard=x",
                           "kill:shard=1:gremlin=3", "kill:cell=2"}) {
    ChaosEnv chaos(spec);
    try {
      (void)runner.run_sharded(grid,
                               apps::ShardOptions{.shards = 2, .policy = {}});
      FAIL() << "OPTDM_CHAOS='" << spec << "' must be rejected";
    } catch (const util::Failure& e) {
      EXPECT_EQ(e.code(), util::FailureCode::kInvalidConfig) << spec;
    }
  }
}

}  // namespace
