// Elastic scale-out and lease-based leadership end to end: a node admitted
// mid-run receives migrated shard groups and its worker enters aggregation
// (exactly-once, ledger-verified) for every sync method; lease-mode
// failover never opens a dual-primary window (and provably closes the one
// suspicion-timeout failover allows); incarnation supersession is
// immediate; and elastic sweeps are bit-identical at any runner thread
// count.
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

model::Workload small_workload() {
  model::Workload w;
  w.model = model::toy_uniform(4, 120'000);
  w.batch_per_worker = 4;
  w.iter_compute_time = 0.020;
  return w;
}

ClusterConfig elastic_config(SyncMethod method) {
  ClusterConfig cfg;
  cfg.n_workers = 4;
  cfg.method = method;
  cfg.bandwidth = gbps(1.0);
  cfg.latency = us(25);
  cfg.slice_params = 50'000;
  cfg.replication = 2;
  cfg.heartbeat_period = ms(5);
  cfg.suspicion_timeout = ms(25);
  cfg.max_sim_time = 60.0;  // fail fast if admission or migration wedges
  return cfg;
}

constexpr SyncMethod kAllMethods[] = {
    SyncMethod::kBaseline, SyncMethod::kSlicingOnly, SyncMethod::kP3,
    SyncMethod::kTensorFlowStyle, SyncMethod::kPoseidonWFBP};

/// Exactly-once check over the expanded cluster: every slice's version
/// vector equals the iteration count (a double-applied re-push or migrated
/// duplicate would overshoot), and every listed worker saw every layer.
void expect_converged(const Cluster& cluster, int layers,
                      std::int64_t iterations,
                      const std::vector<int>& workers) {
  for (std::int64_t s = 0; s < cluster.partition().num_slices(); ++s) {
    EXPECT_EQ(cluster.slice_version(s), iterations) << "slice " << s;
  }
  for (int w : workers) {
    for (int l = 0; l < layers; ++l) {
      EXPECT_EQ(cluster.worker_layer_version(w, l), iterations)
          << "worker " << w << " layer " << l;
    }
  }
}

// ---------------------------------------------------------------------------
// Tentpole acceptance: a server+worker node joins mid-run, the deterministic
// planner hands it shard groups, and every sync method completes with
// ledger-verified exactly-once aggregation — under leases, with zero
// dual-primary windows.
// ---------------------------------------------------------------------------

class ElasticJoin : public ::testing::TestWithParam<SyncMethod> {};

TEST_P(ElasticJoin, JoinMigratesShardsAndConverges) {
  ClusterConfig cfg = elastic_config(GetParam());
  cfg.faults.joins.push_back({4, 0.05});
  cfg.faults.lease_duration = 0.1;

  Cluster cluster(small_workload(), cfg);
  const int iterations = 6;
  const auto result = cluster.run(1, iterations - 1);
  cluster.drain();

  EXPECT_TRUE(cluster.leases_armed());
  EXPECT_EQ(result.joins, 1);
  EXPECT_EQ(result.crashes, 0);
  // Joiner 4 (k = 0) takes max(1, 4/5) = 1 contiguous group starting at 0.
  EXPECT_EQ(result.migrations, 1);
  // P3-style slicing round-robins slices over servers, so group 0 always
  // owns state; kvstore placement may leave it empty (the handover is then
  // a pure leadership transfer).
  const bool sliced = GetParam() == SyncMethod::kSlicingOnly ||
                      GetParam() == SyncMethod::kP3;
  if (sliced) {
    EXPECT_GT(result.migrated_bytes, 0);
  }
  EXPECT_GT(result.lease_renewals, 0);
  EXPECT_EQ(result.dual_primary_windows, 0);
  // Every view converged on the joiner leading group 0.
  for (int n = 0; n < 5; ++n) {
    EXPECT_EQ(cluster.leadership_view(n).primary(0), 4) << "observer " << n;
    EXPECT_GE(cluster.leadership_view(n).epoch(0), 1) << "observer " << n;
  }
  // The joiner's worker reached the same target as the base set.
  expect_converged(cluster, 4, iterations, {0, 1, 2, 3, 4});
  EXPECT_TRUE(cluster.simulator().idle());
  EXPECT_EQ(cluster.reliable_in_flight(), 0);
}

INSTANTIATE_TEST_SUITE_P(AllMethods, ElasticJoin,
                         ::testing::ValuesIn(kAllMethods));

// ---------------------------------------------------------------------------
// Joins work without leases too (legacy suspicion-timeout failover): the
// membership plane arms, the migration runs, no lease state is consumed.
// ---------------------------------------------------------------------------

TEST(ElasticScaleOut, JoinWithoutLeasesMigratesAndConverges) {
  ClusterConfig cfg = elastic_config(SyncMethod::kP3);
  cfg.faults.joins.push_back({4, 0.05});

  Cluster cluster(small_workload(), cfg);
  const int iterations = 6;
  const auto result = cluster.run(1, iterations - 1);
  cluster.drain();

  EXPECT_TRUE(cluster.membership_armed());
  EXPECT_FALSE(cluster.leases_armed());
  EXPECT_EQ(result.joins, 1);
  EXPECT_EQ(result.migrations, 1);
  EXPECT_EQ(result.lease_renewals, 0);
  EXPECT_EQ(result.lease_expiries, 0);
  expect_converged(cluster, 4, iterations, {0, 1, 2, 3, 4});
  EXPECT_TRUE(cluster.simulator().idle());
}

// ---------------------------------------------------------------------------
// Two joiners: the planner assigns disjoint contiguous shares and both
// workers enter aggregation.
// ---------------------------------------------------------------------------

TEST(ElasticScaleOut, TwoJoinersTakeDisjointShares) {
  ClusterConfig cfg = elastic_config(SyncMethod::kP3);
  cfg.faults.joins.push_back({4, 0.05});
  cfg.faults.joins.push_back({5, 0.12});
  cfg.faults.lease_duration = 0.1;

  Cluster cluster(small_workload(), cfg);
  const int iterations = 6;
  const auto result = cluster.run(1, iterations - 1);
  cluster.drain();

  EXPECT_EQ(result.joins, 2);
  EXPECT_EQ(result.migrations, 2);  // one group each (4 takes 0, 5 takes 1)
  EXPECT_EQ(result.dual_primary_windows, 0);
  for (int n = 0; n < 6; ++n) {
    EXPECT_EQ(cluster.leadership_view(n).primary(0), 4) << "observer " << n;
    EXPECT_EQ(cluster.leadership_view(n).primary(1), 5) << "observer " << n;
  }
  expect_converged(cluster, 4, iterations, {0, 1, 2, 3, 4, 5});
  EXPECT_TRUE(cluster.simulator().idle());
}

// ---------------------------------------------------------------------------
// The headline lease guarantee, by contrast. A GC-style NIC pause longer
// than the suspicion timeout:
//   - under suspicion-only failover, a backup seizes the group while the
//     paused primary still believes it leads — a measured dual-primary
//     window;
//   - under leases, the successor must wait out the lease, the pause ends
//     first, and no window ever opens.
// ---------------------------------------------------------------------------

TEST(LeaseLeadership, PauseBeyondSuspicionOpensDualWindowWithoutLeases) {
  ClusterConfig cfg = elastic_config(SyncMethod::kP3);
  cfg.faults.pauses.push_back({1, 0.05, 0.06});  // 60 ms >> 25 ms suspicion
  Cluster cluster(small_workload(), cfg);
  const int iterations = 6;
  const auto result = cluster.run(1, iterations - 1);
  cluster.drain();
  // The false failover happened, and ground truth saw both primaries act.
  EXPECT_GE(result.failovers, 1);
  EXPECT_GT(result.dual_primary_windows, 0);
  // The protocol still converges (version dedup absorbs the stale payloads).
  expect_converged(cluster, 4, iterations, {0, 1, 2, 3});
  EXPECT_TRUE(cluster.simulator().idle());
}

TEST(LeaseLeadership, LeaseOutlivesThePauseSoNoFailoverAndNoDualWindow) {
  ClusterConfig cfg = elastic_config(SyncMethod::kP3);
  cfg.faults.pauses.push_back({1, 0.05, 0.06});  // same pause as above
  cfg.faults.lease_duration = 0.3;  // lease expiry lands after the release
  Cluster cluster(small_workload(), cfg);
  const int iterations = 6;
  const auto result = cluster.run(1, iterations - 1);
  cluster.drain();
  EXPECT_TRUE(cluster.leases_armed());
  EXPECT_EQ(result.failovers, 0);
  EXPECT_EQ(result.dual_primary_windows, 0);
  expect_converged(cluster, 4, iterations, {0, 1, 2, 3});
  EXPECT_TRUE(cluster.simulator().idle());
}

// ---------------------------------------------------------------------------
// Leases still fail over — after expiry. A permanent crash under leases
// completes via the normal takeover path with zero dual windows.
// ---------------------------------------------------------------------------

TEST(LeaseLeadership, PermanentCrashFailsOverAfterLeaseExpiry) {
  ClusterConfig cfg = elastic_config(SyncMethod::kP3);
  cfg.faults.crashes.push_back({3, 0.05, -1.0});
  cfg.faults.lease_duration = 0.1;
  Cluster cluster(small_workload(), cfg);
  const int iterations = 6;
  const auto result = cluster.run(1, iterations - 1);
  cluster.drain();
  EXPECT_EQ(result.crashes, 1);
  EXPECT_GE(result.failovers, 1);
  EXPECT_EQ(result.dual_primary_windows, 0);
  expect_converged(cluster, 4, iterations, {0, 1, 2});
  EXPECT_TRUE(cluster.simulator().idle());
}

// ---------------------------------------------------------------------------
// Satellite fix regression: a restart within one heartbeat interval beacons
// a higher incarnation while every observer still believes the old process
// alive. Supersession must be immediate — counted, leases voided — and the
// run must converge without waiting out a stale lease on a ghost.
// ---------------------------------------------------------------------------

TEST(LeaseLeadership, RestartWithinOneHeartbeatSupersedesImmediately) {
  ClusterConfig cfg = elastic_config(SyncMethod::kP3);
  cfg.checkpoint_period = 0.02;
  cfg.faults.crashes.push_back({2, 0.05, 0.002});  // back in 2 ms < 5 ms beat
  cfg.faults.lease_duration = 0.1;
  Cluster cluster(small_workload(), cfg);
  const int iterations = 6;
  const auto result = cluster.run(1, iterations - 1);
  cluster.drain();
  EXPECT_EQ(result.crashes, 1);
  EXPECT_EQ(result.restarts, 1);
  // The new incarnation's first beacons landed before any observer's
  // silence detector noticed the death.
  EXPECT_GE(result.supersessions, 1);
  EXPECT_EQ(result.dual_primary_windows, 0);
  expect_converged(cluster, 4, iterations, {0, 1, 2, 3});
  EXPECT_TRUE(cluster.simulator().idle());
}

// ---------------------------------------------------------------------------
// A joiner can later crash: its groups fail back over to the home-ring
// backup (the donor is the joiner-led chain's first backup).
// ---------------------------------------------------------------------------

TEST(ElasticScaleOut, JoinerCrashFailsBackToTheDonorChain) {
  ClusterConfig cfg = elastic_config(SyncMethod::kBaseline);
  cfg.faults.joins.push_back({4, 0.05});
  cfg.faults.crashes.push_back({4, 0.12, -1.0});  // legal: crash after join
  cfg.faults.lease_duration = 0.1;
  Cluster cluster(small_workload(), cfg);
  const int iterations = 6;
  const auto result = cluster.run(1, iterations - 1);
  cluster.drain();
  EXPECT_EQ(result.joins, 1);
  EXPECT_EQ(result.crashes, 1);
  EXPECT_EQ(result.dual_primary_windows, 0);
  // Whether the crash landed before or after the handover, group 0 must end
  // on a live base server.
  for (int n = 0; n < 4; ++n) {
    EXPECT_LT(cluster.leadership_view(n).primary(0), 4) << "observer " << n;
  }
  expect_converged(cluster, 4, iterations, {0, 1, 2, 3});
  EXPECT_TRUE(cluster.simulator().idle());
}

// ---------------------------------------------------------------------------
// Config rejection at the cluster boundary.
// ---------------------------------------------------------------------------

TEST(ElasticScaleOut, DedicatedServerDeploymentsRejectJoins) {
  ClusterConfig cfg = elastic_config(SyncMethod::kP3);
  cfg.dedicated_servers = true;
  cfg.faults.joins.push_back({8, 0.05});
  EXPECT_THROW(Cluster(small_workload(), cfg), std::invalid_argument);
}

TEST(LeaseLeadership, LeaseNotExceedingHeartbeatPeriodRejected) {
  ClusterConfig cfg = elastic_config(SyncMethod::kP3);
  cfg.faults.lease_duration = cfg.heartbeat_period;  // unrenewable
  EXPECT_THROW(Cluster(small_workload(), cfg), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Staggered joins: a second joiner arrives while the first admission is
// still in flight (overlapping windows — 5 ms apart, well inside the
// join/migration handshake). Both must converge with disjoint shares, and
// the interleaving must be bit-identical at any runner thread count.
// ---------------------------------------------------------------------------

TEST(ElasticScaleOut, StaggeredJoinersOnOverlappingWindowsConverge) {
  const auto run_once = [] {
    ClusterConfig cfg = elastic_config(SyncMethod::kP3);
    cfg.faults.joins.push_back({4, 0.05});
    cfg.faults.joins.push_back({5, 0.055});  // mid-admission of node 4
    cfg.faults.lease_duration = 0.1;
    return cfg;
  };
  Cluster cluster(small_workload(), run_once());
  const int iterations = 6;
  const auto result = cluster.run(1, iterations - 1);
  cluster.drain();

  EXPECT_EQ(result.joins, 2);
  EXPECT_EQ(result.migrations, 2);
  EXPECT_EQ(result.dual_primary_windows, 0);
  for (int n = 0; n < 6; ++n) {
    EXPECT_EQ(cluster.leadership_view(n).primary(0), 4) << "observer " << n;
    EXPECT_EQ(cluster.leadership_view(n).primary(1), 5) << "observer " << n;
  }
  expect_converged(cluster, 4, iterations, {0, 1, 2, 3, 4, 5});
  EXPECT_TRUE(cluster.simulator().idle());

  // The same staggered admission is bit-identical at 1, 2 and 4 threads.
  const auto run_point = [&run_once] {
    Cluster c(small_workload(), run_once());
    auto r = c.run(1, 4);
    c.drain();
    return r;
  };
  std::vector<std::vector<RunResult>> by_threads;
  for (const int threads : {1, 2, 4}) {
    runner::ParallelExecutor pool(threads);
    std::vector<std::function<RunResult()>> jobs(2, run_point);
    by_threads.push_back(pool.map(std::move(jobs)));
  }
  for (std::size_t t = 1; t < by_threads.size(); ++t) {
    for (std::size_t i = 0; i < by_threads[t].size(); ++i) {
      const RunResult& a = by_threads[0][i];
      const RunResult& b = by_threads[t][i];
      EXPECT_EQ(a.throughput, b.throughput) << "job " << i;
      EXPECT_EQ(a.total_time, b.total_time) << "job " << i;
      EXPECT_EQ(a.wire_bytes, b.wire_bytes) << "job " << i;
      EXPECT_EQ(a.joins, b.joins) << "job " << i;
      EXPECT_EQ(a.migrations, b.migrations) << "job " << i;
      EXPECT_EQ(a.migrated_bytes, b.migrated_bytes) << "job " << i;
      EXPECT_EQ(a.lease_renewals, b.lease_renewals) << "job " << i;
      EXPECT_EQ(a.dual_primary_windows, b.dual_primary_windows)
          << "job " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Determinism: the same seeded elastic sweep (joins + crashes + leases) is
// bit-identical at 1, 2 and 4 runner threads — three full executions, so
// same-seed rerun identity is covered by the same comparison.
// ---------------------------------------------------------------------------

TEST(ElasticScaleOut, ElasticSweepBitIdenticalAcrossRunnerThreads) {
  struct Point {
    SyncMethod method;
    bool crash;
    bool lease;
  };
  const std::vector<Point> grid = {
      {SyncMethod::kP3, false, true},
      {SyncMethod::kBaseline, true, true},
      {SyncMethod::kTensorFlowStyle, false, false},
      {SyncMethod::kPoseidonWFBP, false, true},
  };
  const auto run_point = [](const Point& p) {
    ClusterConfig cfg = elastic_config(p.method);
    cfg.checkpoint_period = 0.02;
    cfg.faults.joins.push_back({4, 0.05});
    if (p.crash) cfg.faults.crashes.push_back({1, 0.3, 0.05});
    if (p.lease) cfg.faults.lease_duration = 0.1;
    Cluster cluster(small_workload(), cfg);
    auto r = cluster.run(1, 4);
    cluster.drain();
    return r;
  };
  std::vector<std::vector<RunResult>> by_threads;
  for (const int threads : {1, 2, 4}) {
    runner::ParallelExecutor pool(threads);
    std::vector<std::function<RunResult()>> jobs;
    for (const auto& p : grid) {
      jobs.push_back([=] { return run_point(p); });
    }
    by_threads.push_back(pool.map(std::move(jobs)));
  }
  for (std::size_t t = 1; t < by_threads.size(); ++t) {
    for (std::size_t i = 0; i < grid.size(); ++i) {
      const RunResult& a = by_threads[0][i];
      const RunResult& b = by_threads[t][i];
      EXPECT_EQ(a.throughput, b.throughput) << "point " << i;
      EXPECT_EQ(a.total_time, b.total_time) << "point " << i;
      EXPECT_EQ(a.wire_bytes, b.wire_bytes) << "point " << i;
      EXPECT_EQ(a.goodput_bytes, b.goodput_bytes) << "point " << i;
      EXPECT_EQ(a.heartbeats_sent, b.heartbeats_sent) << "point " << i;
      EXPECT_EQ(a.joins, b.joins) << "point " << i;
      EXPECT_EQ(a.migrations, b.migrations) << "point " << i;
      EXPECT_EQ(a.migrated_bytes, b.migrated_bytes) << "point " << i;
      EXPECT_EQ(a.lease_renewals, b.lease_renewals) << "point " << i;
      EXPECT_EQ(a.lease_expiries, b.lease_expiries) << "point " << i;
      EXPECT_EQ(a.failovers, b.failovers) << "point " << i;
      EXPECT_EQ(a.supersessions, b.supersessions) << "point " << i;
      EXPECT_EQ(a.dual_primary_windows, b.dual_primary_windows)
          << "point " << i;
    }
  }
  // And the lease rows of the reference execution honored the invariant.
  for (std::size_t i = 0; i < grid.size(); ++i) {
    if (grid[i].lease) {
      EXPECT_EQ(by_threads[0][i].dual_primary_windows, 0) << "point " << i;
    }
  }
}

}  // namespace
}  // namespace p3::ps
