// Crash recovery end to end: replicated shards survive a permanent server
// crash via deterministic failover, restarted servers rehydrate from
// checkpoint + leader delta, crashed workers rejoin under bounded
// staleness, gradients apply exactly once (version-vector check), and
// same-seed crash runs are bit-identical at any runner thread count.
#include "ps/cluster.h"

#include <gtest/gtest.h>

#include <functional>
#include <stdexcept>
#include <vector>

#include "model/zoo.h"
#include "runner/parallel.h"

namespace p3::ps {
namespace {

using core::SyncMethod;

model::Workload small_workload(int layers = 4, std::int64_t params = 120'000,
                               TimeS compute = 0.020) {
  model::Workload w;
  w.model = model::toy_uniform(layers, params);
  w.batch_per_worker = 4;
  w.iter_compute_time = compute;
  return w;
}

ClusterConfig crash_config(SyncMethod method, int workers = 4) {
  ClusterConfig cfg;
  cfg.n_workers = workers;
  cfg.method = method;
  cfg.bandwidth = gbps(1.0);
  cfg.latency = us(25);
  cfg.slice_params = 50'000;
  cfg.replication = 2;
  cfg.heartbeat_period = ms(5);
  cfg.suspicion_timeout = ms(25);
  cfg.max_sim_time = 60.0;  // fail fast if recovery wedges
  return cfg;
}

constexpr SyncMethod kAllMethods[] = {
    SyncMethod::kBaseline, SyncMethod::kSlicingOnly, SyncMethod::kP3,
    SyncMethod::kTensorFlowStyle, SyncMethod::kPoseidonWFBP};

/// Exactly-once check: every slice's version vector equals the iteration
/// count, and every *surviving* worker saw every layer reach it.
void expect_recovered(const Cluster& cluster, int layers,
                      std::int64_t iterations,
                      const std::vector<int>& live_workers) {
  const auto& part = cluster.partition();
  for (std::int64_t s = 0; s < part.num_slices(); ++s) {
    EXPECT_EQ(cluster.slice_version(s), iterations) << "slice " << s;
  }
  for (int w : live_workers) {
    for (int l = 0; l < layers; ++l) {
      EXPECT_EQ(cluster.worker_layer_version(w, l), iterations)
          << "worker " << w << " layer " << l;
    }
  }
}

// ---------------------------------------------------------------------------
// Permanent server+worker crash with a live replica: every sync method
// completes and applies each surviving round exactly once.
// ---------------------------------------------------------------------------

class CrashFailover : public ::testing::TestWithParam<SyncMethod> {};

TEST_P(CrashFailover, PermanentCrashWithReplicaConverges) {
  ClusterConfig cfg = crash_config(GetParam());
  net::NodeCrash crash;
  crash.node = 3;  // colocated: kills worker 3 and server 3 forever
  crash.at = 0.05;
  cfg.faults.crashes.push_back(crash);

  Cluster cluster(small_workload(), cfg);
  const int iterations = 6;
  const auto result = cluster.run(1, iterations - 1);
  cluster.drain();

  EXPECT_EQ(result.crashes, 1);
  EXPECT_EQ(result.restarts, 0);
  // Server 3's groups must have moved to the next live chain replica.
  EXPECT_GE(result.failovers, 1);
  expect_recovered(cluster, 4, iterations, {0, 1, 2});
  // The dead node's NIC went silent: survivors' views agree it is gone.
  for (int n = 0; n < 3; ++n) {
    EXPECT_FALSE(cluster.membership_view(n).alive(3)) << "observer " << n;
  }
  EXPECT_TRUE(cluster.simulator().idle());
  EXPECT_EQ(cluster.reliable_in_flight(), 0);
  EXPECT_GT(result.heartbeats_sent, 0);
}

INSTANTIATE_TEST_SUITE_P(AllMethods, CrashFailover,
                         ::testing::ValuesIn(kAllMethods));

// ---------------------------------------------------------------------------
// Baseline notify -> pull across a failover: parameters that reach a worker
// through a recovery path (the new primary's stale-push reply) count as
// evidence that their round finished, so the other slices of a multi-slice
// layer are still pulled when the dead primary's notify never arrived. The
// crash times sit inside the windows where a trigger that ignores that
// evidence wedges.
// ---------------------------------------------------------------------------

TEST(CrashRecovery, RecoveredParamsCountAsNotifyEvidence) {
  for (const TimeS at : {0.0215, 0.0630, 0.1005}) {
    ClusterConfig cfg;
    cfg.n_workers = 4;
    cfg.method = SyncMethod::kBaseline;
    cfg.bandwidth = gbps(1.0);
    cfg.kvstore_threshold = 50'000;  // every layer spans all four servers
    cfg.replication = 2;
    cfg.max_sim_time = 30.0;
    cfg.faults.crashes.push_back({1, at, 0.0});
    Cluster cluster(small_workload(4, 120'000, 0.010), cfg);
    const int iterations = 6;
    EXPECT_NO_THROW(cluster.run(1, iterations - 1)) << "crash at " << at;
    cluster.drain();
    expect_recovered(cluster, 4, iterations, {0, 2, 3});
  }
}

// ---------------------------------------------------------------------------
// Worker crash + restart on dedicated servers: the worker rejoins under the
// bounded-staleness window and still reaches the iteration target.
// ---------------------------------------------------------------------------

TEST(CrashRecovery, WorkerRejoinsAfterRestart) {
  ClusterConfig cfg = crash_config(SyncMethod::kP3);
  cfg.dedicated_servers = true;  // crash a pure worker node
  cfg.replication = 1;
  net::NodeCrash crash;
  crash.node = 2;
  crash.at = 0.05;
  crash.restart_after = 0.04;
  cfg.faults.crashes.push_back(crash);

  Cluster cluster(small_workload(), cfg);
  const int iterations = 6;
  const auto result = cluster.run(1, iterations - 1);
  cluster.drain();

  EXPECT_EQ(result.crashes, 1);
  EXPECT_EQ(result.restarts, 1);
  EXPECT_EQ(result.worker_rejoins, 1);
  EXPECT_EQ(result.failovers, 0);  // no server was lost
  EXPECT_GT(result.max_rejoin_lag, 0.0);
  // The rejoined worker completed the run too: all four gates closed at the
  // target, and every shard applied exactly `iterations` rounds.
  expect_recovered(cluster, 4, iterations, {0, 1, 2, 3});
  EXPECT_TRUE(cluster.simulator().idle());
  EXPECT_EQ(cluster.reliable_in_flight(), 0);
}

// ---------------------------------------------------------------------------
// Server crash + restart with checkpoints: the restarted server rehydrates
// from its checkpoint plus a delta from the current leader.
// ---------------------------------------------------------------------------

TEST(CrashRecovery, ServerRehydratesFromCheckpointAndLeaderDelta) {
  ClusterConfig cfg = crash_config(SyncMethod::kP3);
  cfg.checkpoint_period = 0.02;
  net::NodeCrash crash;
  crash.node = 1;  // colocated server+worker, back after 30 ms
  crash.at = 0.06;
  crash.restart_after = 0.03;
  cfg.faults.crashes.push_back(crash);

  Cluster cluster(small_workload(), cfg);
  const int iterations = 6;
  const auto result = cluster.run(1, iterations - 1);
  cluster.drain();

  EXPECT_EQ(result.crashes, 1);
  EXPECT_EQ(result.restarts, 1);
  EXPECT_EQ(result.rehydrations, 1);
  EXPECT_EQ(result.worker_rejoins, 1);
  EXPECT_GE(result.checkpoints_written, 1);
  EXPECT_GT(result.checkpoint_bytes, 0);
  EXPECT_GT(result.mean_rehydration_time, 0.0);
  expect_recovered(cluster, 4, iterations, {0, 1, 2, 3});
  EXPECT_TRUE(cluster.simulator().idle());
}

// ---------------------------------------------------------------------------
// Exactly-once accounting under a crash: goodput-level duplicates are
// suppressed, wire sees the retries, and version vectors never overshoot.
// ---------------------------------------------------------------------------

TEST(CrashRecovery, RepushesNeverDoubleApply) {
  ClusterConfig cfg = crash_config(SyncMethod::kBaseline);
  net::NodeCrash crash;
  crash.node = 0;  // crash the *first* server: its groups fail over
  crash.at = 0.05;
  cfg.faults.crashes.push_back(crash);

  Cluster cluster(small_workload(), cfg);
  const int iterations = 6;
  const auto result = cluster.run(1, iterations - 1);
  cluster.drain();

  const auto& part = cluster.partition();
  for (std::int64_t s = 0; s < part.num_slices(); ++s) {
    EXPECT_LE(cluster.slice_version(s), iterations) << "overshoot on " << s;
    EXPECT_EQ(cluster.slice_version(s), iterations) << "slice " << s;
  }
  // Worker 0 (stats anchor) is dead; survivors measured.
  EXPECT_GT(result.throughput, 0.0);
  EXPECT_TRUE(cluster.simulator().idle());
}

// ---------------------------------------------------------------------------
// A worker restart opens a bounded-staleness window at every primary. Later
// a dedicated server crashes and restarts within the suspicion timeout and
// rehydrates from its (empty) checkpoint while pushes keep arriving, so its
// slice versions jump outside round completion: down to the checkpoint, up
// by fast-forward and replica copies. Each jump can move the open round
// across the rejoined worker's window; the server must re-derive whom its
// rounds wait for, and every round still applies exactly once.
// ---------------------------------------------------------------------------

TEST(CrashRecovery, QuickServerRestartAfterRejoinAppliesOnce) {
  for (const TimeS at : {0.197, 0.204, 0.211, 0.225}) {
    ClusterConfig cfg = crash_config(SyncMethod::kBaseline);
    cfg.dedicated_servers = true;
    cfg.faults.crashes.push_back({2, 0.03, 0.04});  // worker 2 rejoins
    cfg.faults.crashes.push_back({5, at, 0.01});    // server 1, briefly

    Cluster cluster(small_workload(), cfg);
    const int iterations = 9;
    const auto result = cluster.run(1, iterations - 1);
    cluster.drain();

    EXPECT_EQ(result.restarts, 2) << "crash at " << at;
    EXPECT_EQ(result.worker_rejoins, 1) << "crash at " << at;
    expect_recovered(cluster, 4, iterations, {0, 1, 2, 3});
  }
}

// ---------------------------------------------------------------------------
// Determinism: the same seeded crash run is bit-identical whether the sweep
// executes on 1, 2 or 4 runner threads (each point owns its simulator).
// ---------------------------------------------------------------------------

TEST(CrashRecovery, CrashSweepBitIdenticalAcrossRunnerThreads) {
  const auto run_point = [](SyncMethod method, TimeS crash_at,
                            double restart_after) {
    ClusterConfig cfg = crash_config(method);
    cfg.checkpoint_period = 0.02;
    net::NodeCrash crash;
    crash.node = 2;
    crash.at = crash_at;
    crash.restart_after = restart_after;
    cfg.faults.crashes.push_back(crash);
    Cluster cluster(small_workload(), cfg);
    auto r = cluster.run(1, 4);
    cluster.drain();
    return r;
  };
  const std::vector<std::pair<SyncMethod, std::pair<TimeS, double>>> grid = {
      {SyncMethod::kBaseline, {0.05, -1.0}},
      {SyncMethod::kP3, {0.05, 0.04}},
      {SyncMethod::kP3, {0.08, -1.0}},
      {SyncMethod::kTensorFlowStyle, {0.06, 0.05}},
  };
  std::vector<std::vector<RunResult>> by_threads;
  for (const int threads : {1, 2, 4}) {
    runner::ParallelExecutor pool(threads);
    std::vector<std::function<RunResult()>> jobs;
    for (const auto& [method, when] : grid) {
      jobs.push_back([=] { return run_point(method, when.first, when.second); });
    }
    by_threads.push_back(pool.map(std::move(jobs)));
  }
  for (std::size_t t = 1; t < by_threads.size(); ++t) {
    for (std::size_t i = 0; i < grid.size(); ++i) {
      const RunResult& a = by_threads[0][i];
      const RunResult& b = by_threads[t][i];
      EXPECT_EQ(a.throughput, b.throughput) << "point " << i;
      EXPECT_EQ(a.total_time, b.total_time) << "point " << i;
      EXPECT_EQ(a.mean_iteration_time, b.mean_iteration_time) << "point " << i;
      EXPECT_EQ(a.failovers, b.failovers) << "point " << i;
      EXPECT_EQ(a.retransmits, b.retransmits) << "point " << i;
      EXPECT_EQ(a.wire_bytes, b.wire_bytes) << "point " << i;
      EXPECT_EQ(a.goodput_bytes, b.goodput_bytes) << "point " << i;
      EXPECT_EQ(a.heartbeats_sent, b.heartbeats_sent) << "point " << i;
      EXPECT_EQ(a.worker_rejoins, b.worker_rejoins) << "point " << i;
      EXPECT_EQ(a.rehydrations, b.rehydrations) << "point " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// The membership plane is pay-for-what-you-use: no crashes, no replication,
// no force flag => nothing armed, run identical to the plain engine.
// ---------------------------------------------------------------------------

TEST(CrashRecovery, DisarmedPlaneIsBitIdenticalToPlainEngine) {
  const auto run_once = [](bool with_loss) {
    ClusterConfig cfg = crash_config(SyncMethod::kP3);
    cfg.replication = 1;
    if (with_loss) cfg.faults.drop_prob = 0.05;
    Cluster cluster(small_workload(), cfg);
    auto r = cluster.run(1, 3);
    cluster.drain();
    EXPECT_FALSE(cluster.membership_armed());
    EXPECT_EQ(r.heartbeats_sent, 0);
    EXPECT_EQ(r.failovers, 0);
    return r.total_time;
  };
  // Loss plans alone (PR 1 behaviour) keep the plane disarmed; two
  // identical runs are bit-identical.
  EXPECT_EQ(run_once(false), run_once(false));
  EXPECT_EQ(run_once(true), run_once(true));
}

TEST(CrashRecovery, ReplicationAloneArmsPlaneAndStaysConvergent) {
  ClusterConfig cfg = crash_config(SyncMethod::kP3);
  ASSERT_EQ(cfg.replication, 2);
  Cluster cluster(small_workload(), cfg);
  const int iterations = 4;
  cluster.run(1, iterations - 1);
  cluster.drain();
  EXPECT_TRUE(cluster.membership_armed());
  expect_recovered(cluster, 4, iterations, {0, 1, 2, 3});
  EXPECT_EQ(cluster.failovers(), 0);
  EXPECT_TRUE(cluster.simulator().idle());
}

}  // namespace
}  // namespace p3::ps
