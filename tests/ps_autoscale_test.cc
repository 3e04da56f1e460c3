// Voluntary drain/leave, weight-aware rebalancing, and the SLO-driven
// autoscaler end to end: a draining node live-migrates its groups out and
// retires without ever reappearing as a contributor or leaseholder
// (PROTOCOL.md invariant 12); a crash mid-drain falls back to the ordinary
// failover path; the autoscaler admits standbys under a tight SLO, drains
// surplus nodes when idle, sheds low-priority pushes when out of capacity —
// all exactly-once, flap-free, and bit-identical across runner threads.
#include "ps/autoscaler.h"

#include <gtest/gtest.h>

#include <functional>
#include <stdexcept>
#include <vector>

#include "model/zoo.h"
#include "ps/cluster.h"
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

ClusterConfig drain_config(SyncMethod method) {
  ClusterConfig cfg;
  cfg.n_workers = 4;
  cfg.method = method;
  cfg.bandwidth = gbps(1.0);
  cfg.latency = us(25);
  cfg.slice_params = 50'000;
  cfg.replication = 2;
  cfg.heartbeat_period = ms(5);
  cfg.suspicion_timeout = ms(25);
  cfg.max_sim_time = 60.0;  // fail fast if a drain or admission wedges
  return cfg;
}

constexpr SyncMethod kAllMethods[] = {
    SyncMethod::kBaseline, SyncMethod::kSlicingOnly, SyncMethod::kP3,
    SyncMethod::kTensorFlowStyle, SyncMethod::kPoseidonWFBP};

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

/// Invariant 12 audit: the retired node is gone from every live view and
/// leads nothing anywhere.
void expect_retired_everywhere(const Cluster& cluster, int node,
                               int total_nodes, int n_groups) {
  EXPECT_TRUE(cluster.node_retired(node));
  EXPECT_FALSE(cluster.node_draining(node));
  for (int n = 0; n < total_nodes; ++n) {
    if (n == node) continue;
    EXPECT_FALSE(cluster.membership_view(n).joined(node)) << "view " << n;
    for (int g = 0; g < n_groups; ++g) {
      EXPECT_NE(cluster.leadership_view(n).primary(g), node)
          << "view " << n << " group " << g;
    }
  }
}

// ---------------------------------------------------------------------------
// weighted_share: the pure planner kernel.
// ---------------------------------------------------------------------------

TEST(WeightedShare, TakesHottestGroupsUpToFairShare) {
  // Total 16, 4 shares => target 4: group 2 (w=8) alone crosses it.
  const auto plan = weighted_share({2.0, 2.0, 8.0, 4.0}, {0, 1, 2, 3}, 4);
  EXPECT_EQ(plan, (std::vector<int>{2}));
}

TEST(WeightedShare, TwoSharesSplitsWeightNotCount) {
  // Total 16, 2 shares => target 8: group 2 (8) alone reaches it; a
  // count-based planner would have taken two of the four groups.
  const auto plan = weighted_share({2.0, 2.0, 8.0, 4.0}, {0, 1, 2, 3}, 2);
  EXPECT_EQ(plan, (std::vector<int>{2}));
}

TEST(WeightedShare, UniformWeightsDegradeToFairCount) {
  const auto plan = weighted_share({1.0, 1.0, 1.0, 1.0}, {0, 1, 2, 3}, 2);
  EXPECT_EQ(plan, (std::vector<int>{0, 1}));  // ties broken by ascending id
}

TEST(WeightedShare, NeverStripsTheDonorsBare) {
  // One share would mean "take everything"; the donors keep one group.
  const auto plan = weighted_share({1.0, 1.0, 1.0}, {0, 1, 2}, 1);
  EXPECT_EQ(plan.size(), 2u);
}

TEST(WeightedShare, AlwaysTakesAtLeastOneGroup) {
  const auto plan = weighted_share({100.0, 1.0}, {0, 1}, 50);
  EXPECT_EQ(plan, (std::vector<int>{0}));
}

TEST(WeightedShare, EmptyCandidatesYieldEmptyPlan) {
  EXPECT_TRUE(weighted_share({1.0}, {}, 2).empty());
  EXPECT_TRUE(weighted_share({1.0}, {0}, 0).empty());
}

// ---------------------------------------------------------------------------
// Autoscaler policy against a synthetic registry: hysteresis, cooldown,
// violation accounting, stall detection, shed fallback.
// ---------------------------------------------------------------------------

class AutoscalerPolicy : public ::testing::Test {
 protected:
  AutoscalerPolicy()
      : hist_(registry_.histogram("worker.iteration_time_s",
                                  {0.01, 0.05, 0.1, 0.5})) {}

  AutoscalerConfig policy(double slo) {
    AutoscalerConfig cfg;
    cfg.enabled = true;
    cfg.slo_p99_iteration = slo;
    cfg.hysteresis_ticks = 3;
    cfg.cooldown = 0.5;
    cfg.window_ticks = 8;
    return cfg;
  }

  obs::Registry registry_;
  obs::Histogram& hist_;
};

TEST_F(AutoscalerPolicy, HysteresisDelaysTheFirstDecision) {
  Autoscaler as(policy(0.05), &registry_);
  TimeS t = 0.0;
  // Two overloaded ticks: streak below hysteresis, no action yet.
  for (int i = 0; i < 2; ++i) {
    hist_.observe(0.2);
    EXPECT_EQ(as.tick(t, true, false), ScaleAction::kHold) << "tick " << i;
    t += 0.1;
  }
  hist_.observe(0.2);
  EXPECT_EQ(as.tick(t, true, false), ScaleAction::kUp);
  EXPECT_EQ(as.last_decision(), t);
}

TEST_F(AutoscalerPolicy, CooldownForbidsBackToBackDecisions) {
  Autoscaler as(policy(0.05), &registry_);
  TimeS t = 0.0;
  std::vector<TimeS> decisions;
  for (int i = 0; i < 40; ++i) {
    hist_.observe(0.2);  // permanently overloaded
    if (as.tick(t, true, false) != ScaleAction::kHold) {
      decisions.push_back(t);
    }
    t += 0.1;
  }
  ASSERT_GE(decisions.size(), 2u);
  for (std::size_t i = 1; i < decisions.size(); ++i) {
    EXPECT_GE(decisions[i] - decisions[i - 1], 0.5)
        << "decisions " << i - 1 << " and " << i << " flapped";
  }
}

TEST_F(AutoscalerPolicy, ShedsWhenOverloadedWithNothingToAdmit) {
  Autoscaler as(policy(0.05), &registry_);
  TimeS t = 0.0;
  ScaleAction act = ScaleAction::kHold;
  for (int i = 0; i < 5 && act == ScaleAction::kHold; ++i) {
    hist_.observe(0.2);
    act = as.tick(t, /*can_scale_up=*/false, false);
    t += 0.1;
  }
  EXPECT_EQ(act, ScaleAction::kShed);
}

TEST_F(AutoscalerPolicy, ScalesDownAfterSustainedUnderload) {
  Autoscaler as(policy(1.0), &registry_);
  TimeS t = 0.0;
  ScaleAction act = ScaleAction::kHold;
  for (int i = 0; i < 5 && act == ScaleAction::kHold; ++i) {
    hist_.observe(0.005);  // p99 ~ 0.01, far under 0.45 * SLO
    act = as.tick(t, false, /*can_scale_down=*/true);
    t += 0.1;
  }
  EXPECT_EQ(act, ScaleAction::kDown);
}

TEST_F(AutoscalerPolicy, CountsSloViolationTicks) {
  Autoscaler as(policy(0.05), &registry_);
  hist_.observe(0.2);
  as.tick(0.0, false, false);
  hist_.observe(0.2);
  as.tick(0.1, false, false);
  EXPECT_EQ(as.slo_violation_ticks(), 2);
  EXPECT_GT(as.last_p99(), 0.05);
}

TEST_F(AutoscalerPolicy, StallWithNoFreshSamplesReadsAsOverload) {
  Autoscaler as(policy(0.05), &registry_);
  // A genuinely healthy sample (lowest bucket, well under every threshold),
  // then silence — the stall clock, not the lingering sample, must be what
  // reads as overload.
  hist_.observe(0.005);
  as.tick(0.0, true, false);
  ScaleAction act = ScaleAction::kHold;
  TimeS t = 0.1;
  for (int i = 0; i < 10 && act == ScaleAction::kHold; ++i) {
    act = as.tick(t, true, false);  // no new observations: stall clock runs
    t += 0.1;
  }
  EXPECT_TRUE(as.stalled());
  EXPECT_EQ(act, ScaleAction::kUp);
  EXPECT_GT(as.slo_violation_ticks(), 0);
}

TEST_F(AutoscalerPolicy, RejectsMalformedConfigs) {
  auto bad = [&](auto mutate) {
    AutoscalerConfig cfg = policy(0.05);
    mutate(cfg);
    EXPECT_THROW(Autoscaler(cfg, &registry_), std::invalid_argument);
  };
  bad([](AutoscalerConfig& c) { c.slo_p99_iteration = 0.0; });
  bad([](AutoscalerConfig& c) { c.cooldown = 0.0; });
  bad([](AutoscalerConfig& c) { c.hysteresis_ticks = 0; });
  bad([](AutoscalerConfig& c) { c.window_ticks = 0; });
  bad([](AutoscalerConfig& c) { c.downscale_fraction = 0.9; });  // >= up
  bad([](AutoscalerConfig& c) { c.upscale_fraction = 1.5; });
  bad([](AutoscalerConfig& c) { c.standby_nodes = -1; });
}

// ---------------------------------------------------------------------------
// FaultPlan::validate rejects nonsense leave schedules.
// ---------------------------------------------------------------------------

TEST(LeaveValidation, RejectsMalformedLeaves) {
  {
    net::FaultPlan p;
    p.leaves.push_back({-1, 0.1});
    EXPECT_THROW(p.validate(), std::invalid_argument);
  }
  {
    net::FaultPlan p;
    p.leaves.push_back({1, -0.1});
    EXPECT_THROW(p.validate(), std::invalid_argument);
  }
  {
    net::FaultPlan p;  // two leaves for one node
    p.leaves.push_back({1, 0.1});
    p.leaves.push_back({1, 0.2});
    EXPECT_THROW(p.validate(), std::invalid_argument);
  }
}

TEST(LeaveValidation, RejectsLeaveWhileCrashed) {
  net::FaultPlan p;
  p.crashes.push_back({1, 0.1, 0.5});   // down during [0.1, 0.6)
  p.leaves.push_back({1, 0.3});         // a dead process cannot drain
  EXPECT_THROW(p.validate(), std::invalid_argument);
  // A crash strictly after the drain starts stays legal: that is the
  // drain-x-crash chaos path.
  net::FaultPlan ok;
  ok.crashes.push_back({1, 0.4, 0.5});
  ok.leaves.push_back({1, 0.3});
  EXPECT_NO_THROW(ok.validate(4, 2));
}

TEST(LeaveValidation, RejectsLeaveOfJoinerBeforeItsJoin) {
  net::FaultPlan p;
  p.joins.push_back({4, 0.5});
  p.leaves.push_back({4, 0.2});
  EXPECT_THROW(p.validate(4, 2), std::invalid_argument);
}

TEST(LeaveValidation, RejectsLeaveOfUnknownNode) {
  net::FaultPlan p;
  p.leaves.push_back({7, 0.2});
  EXPECT_THROW(p.validate(4, 2), std::invalid_argument);
}

TEST(LeaveValidation, RejectsDroppingAGroupsLastLiveReplica) {
  // Replication 1, no joiners: node 1's shard group would have nobody left.
  net::FaultPlan p;
  p.leaves.push_back({1, 0.2});
  EXPECT_THROW(p.validate(4, 1), std::invalid_argument);
  // With replication 2 the home chain absorbs the group.
  EXPECT_NO_THROW(p.validate(4, 2));
  // Replication 1 but a joiner exists to absorb it: legal again.
  net::FaultPlan with_join = p;
  with_join.joins.push_back({4, 0.1});
  EXPECT_NO_THROW(with_join.validate(4, 1));
  // Leave + permanent crash covering a whole chain is also rejected.
  net::FaultPlan chain;
  chain.leaves.push_back({1, 0.2});
  chain.crashes.push_back({2, 0.3, -1.0});
  EXPECT_THROW(chain.validate(4, 2), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Tentpole: a planned leave drains the node's groups to a joiner and the
// node retires cleanly — exactly-once, zero dual-primary windows, for every
// sync method.
// ---------------------------------------------------------------------------

class VoluntaryDrain : public ::testing::TestWithParam<SyncMethod> {};

TEST_P(VoluntaryDrain, LeaveMigratesGroupsAndRetiresCleanly) {
  ClusterConfig cfg = drain_config(GetParam());
  cfg.faults.joins.push_back({4, 0.05});
  cfg.faults.leaves.push_back({1, 0.3});
  cfg.faults.lease_duration = 0.1;

  Cluster cluster(small_workload(), cfg);
  const int iterations = 8;
  const auto result = cluster.run(1, iterations - 1);
  cluster.drain();

  EXPECT_TRUE(cluster.scale_plane_armed());
  EXPECT_EQ(result.joins, 1);
  EXPECT_EQ(result.drains_started, 1);
  EXPECT_EQ(result.drains_completed, 1);
  EXPECT_EQ(result.crashes, 0);
  EXPECT_EQ(result.failovers, 0);  // the drain is planned, not a failure
  EXPECT_EQ(result.dual_primary_windows, 0);
  expect_retired_everywhere(cluster, 1, 5, 4);
  // The survivors and the joiner all reached the target with every slice
  // applied exactly once (a double-applied migrated contribution would
  // overshoot the version vector).
  expect_converged(cluster, 4, iterations, {0, 2, 3, 4});
  EXPECT_TRUE(cluster.simulator().idle());
  EXPECT_EQ(cluster.reliable_in_flight(), 0);
}

INSTANTIATE_TEST_SUITE_P(AllMethods, VoluntaryDrain,
                         ::testing::ValuesIn(kAllMethods));

// ---------------------------------------------------------------------------
// Without a joiner, a drained base node's groups fall back to their
// home-chain replicas (the only other legal adopters).
// ---------------------------------------------------------------------------

TEST(VoluntaryDrainChaos, DrainFallsBackToHomeChainReplicas) {
  ClusterConfig cfg = drain_config(SyncMethod::kP3);
  cfg.faults.leaves.push_back({1, 0.05});
  cfg.faults.lease_duration = 0.1;

  Cluster cluster(small_workload(), cfg);
  const int iterations = 8;
  const auto result = cluster.run(1, iterations - 1);
  cluster.drain();

  EXPECT_EQ(result.drains_completed, 1);
  EXPECT_EQ(result.dual_primary_windows, 0);
  expect_retired_everywhere(cluster, 1, 4, 4);
  // Group 1's home chain is {1, 2}: the group must have landed on 2.
  for (int n = 0; n < 4; ++n) {
    if (n == 1) continue;
    EXPECT_EQ(cluster.leadership_view(n).primary(1), 2) << "view " << n;
  }
  expect_converged(cluster, 4, iterations, {0, 2, 3});
  EXPECT_TRUE(cluster.simulator().idle());
}

// ---------------------------------------------------------------------------
// Chaos: a crash mid-drain kills the drain intent with the process; the
// ordinary failover path recovers with zero lost or double-applied
// contributions — and the node, having crashed rather than retired, is
// simply dead (not retired).
// ---------------------------------------------------------------------------

TEST(VoluntaryDrainChaos, CrashMidDrainFallsBackToFailover) {
  ClusterConfig cfg = drain_config(SyncMethod::kP3);
  cfg.faults.leaves.push_back({1, 0.05});
  cfg.faults.crashes.push_back({1, 0.06, -1.0});  // dies 10 ms into the drain
  cfg.faults.lease_duration = 0.1;

  Cluster cluster(small_workload(), cfg);
  const int iterations = 8;
  const auto result = cluster.run(1, iterations - 1);
  cluster.drain();

  EXPECT_EQ(result.drains_started, 1);
  EXPECT_EQ(result.drains_completed, 0);  // the drain never finished
  EXPECT_FALSE(cluster.node_retired(1));
  EXPECT_FALSE(cluster.node_draining(1));
  EXPECT_EQ(result.crashes, 1);
  // Whatever the drain had not yet migrated failed over the normal way.
  EXPECT_EQ(result.dual_primary_windows, 0);
  expect_converged(cluster, 4, iterations, {0, 2, 3});
  EXPECT_TRUE(cluster.simulator().idle());
}

// ---------------------------------------------------------------------------
// Chaos: a drain concurrent with a partition that severs a worker. The
// severed worker's pushes park; on heal they drain into the post-drain
// leadership exactly once.
// ---------------------------------------------------------------------------

TEST(VoluntaryDrainChaos, DrainDuringPartitionParksThenHealsExactlyOnce) {
  ClusterConfig cfg = drain_config(SyncMethod::kP3);
  cfg.faults.joins.push_back({4, 0.05});
  cfg.faults.leaves.push_back({1, 0.35});
  cfg.faults.lease_duration = 0.1;
  net::NetPartition cut;
  cut.side_a = {3};
  cut.side_b = {0, 1, 2, 4};
  cut.start = 0.3;
  cut.heal = 0.7;
  cfg.faults.partitions.push_back(cut);

  Cluster cluster(small_workload(), cfg);
  const int iterations = 8;
  const auto result = cluster.run(1, iterations - 1);
  cluster.drain();

  EXPECT_EQ(result.drains_completed, 1);
  EXPECT_GT(result.parked_pushes, 0);  // the severed worker parked pushes
  EXPECT_EQ(result.cross_partition_deliveries, 0);
  EXPECT_EQ(result.dual_primary_windows, 0);
  expect_retired_everywhere(cluster, 1, 5, 4);
  expect_converged(cluster, 4, iterations, {0, 2, 3, 4});
  EXPECT_TRUE(cluster.simulator().idle());
}

// ---------------------------------------------------------------------------
// Autoscaler end to end: an unreachable SLO admits the standby after the
// hysteresis window, keeps decisions a cooldown apart (flap-free by audit,
// not just by construction), and falls back to shedding once the standby
// pool is exhausted — all exactly-once.
// ---------------------------------------------------------------------------

TEST(AutoscalerEndToEnd, TightSloAdmitsStandbyThenShedsFlapFree) {
  ClusterConfig cfg = drain_config(SyncMethod::kP3);
  cfg.faults.lease_duration = 0.1;
  cfg.autoscaler.enabled = true;
  cfg.autoscaler.standby_nodes = 1;
  cfg.autoscaler.slo_p99_iteration = 0.005;  // unreachably tight
  cfg.autoscaler.hysteresis_ticks = 2;
  cfg.autoscaler.cooldown = 0.2;

  Cluster cluster(small_workload(), cfg);
  const int iterations = 10;
  const auto result = cluster.run(1, iterations - 1);
  cluster.drain();

  EXPECT_TRUE(cluster.scale_plane_armed());
  EXPECT_EQ(result.joins, 1);  // the standby was admitted
  EXPECT_GE(result.scale_decisions, 2);  // ...then shedding took over
  EXPECT_GT(result.sheds, 0);
  EXPECT_GT(result.slo_violation_ticks, 0);
  ASSERT_GE(result.scale_decision_times.size(), 2u);
  for (std::size_t i = 1; i < result.scale_decision_times.size(); ++i) {
    EXPECT_GE(result.scale_decision_times[i] -
                  result.scale_decision_times[i - 1],
              cfg.autoscaler.cooldown)
        << "decisions " << i - 1 << " and " << i << " flapped";
  }
  EXPECT_EQ(result.dual_primary_windows, 0);
  // Shedding delays contributions, never drops them: exactly-once holds.
  expect_converged(cluster, 4, iterations, {0, 1, 2, 3, 4});
  EXPECT_TRUE(cluster.simulator().idle());
}

TEST(AutoscalerEndToEnd, LooseSloDrainsTheSurplusJoiner) {
  ClusterConfig cfg = drain_config(SyncMethod::kP3);
  cfg.faults.joins.push_back({4, 0.05});  // surplus capacity from the start
  cfg.faults.lease_duration = 0.1;
  cfg.autoscaler.enabled = true;
  cfg.autoscaler.standby_nodes = 0;
  cfg.autoscaler.slo_p99_iteration = 30.0;  // nothing ever violates it
  cfg.autoscaler.hysteresis_ticks = 2;
  cfg.autoscaler.cooldown = 0.2;

  Cluster cluster(small_workload(), cfg);
  const int iterations = 10;
  const auto result = cluster.run(1, iterations - 1);
  cluster.drain();

  EXPECT_GE(result.scale_decisions, 1);
  EXPECT_EQ(result.drains_started, 1);
  EXPECT_EQ(result.drains_completed, 1);
  EXPECT_EQ(result.slo_violation_ticks, 0);
  expect_retired_everywhere(cluster, 4, 5, 4);
  expect_converged(cluster, 4, iterations, {0, 1, 2, 3});
  EXPECT_TRUE(cluster.simulator().idle());
}

// ---------------------------------------------------------------------------
// Satellite (f) guard: with no leaves and no autoscaler the scale plane
// stays dark — scale metrics stay at zero, no drain state, zero result
// deltas from the plane.
// ---------------------------------------------------------------------------

TEST(ScalePlane, StaysInertWithoutLeavesOrAutoscaler) {
  ClusterConfig cfg = drain_config(SyncMethod::kP3);
  cfg.faults.joins.push_back({4, 0.05});  // elastic join alone: no plane
  Cluster cluster(small_workload(), cfg);
  const auto result = cluster.run(1, 5);
  cluster.drain();
  EXPECT_FALSE(cluster.scale_plane_armed());
  for (const char* name : {"scale.drains_started", "scale.decisions"}) {
    const obs::Counter* counter = cluster.metrics().find_counter(name);
    ASSERT_NE(counter, nullptr) << name;
    EXPECT_EQ(counter->value(), 0) << name;
  }
  EXPECT_EQ(result.drains_started, 0);
  EXPECT_EQ(result.scale_decisions, 0);
  EXPECT_EQ(result.sheds, 0);
  EXPECT_TRUE(result.scale_decision_times.empty());
}

// ---------------------------------------------------------------------------
// Config validation: the scale plane is colocated-only and does not compose
// with rack aggregation; standby admission needs a flat topology.
// ---------------------------------------------------------------------------

TEST(ScalePlane, RejectsUnsupportedDeployments) {
  {
    ClusterConfig cfg = drain_config(SyncMethod::kP3);
    cfg.dedicated_servers = true;
    cfg.faults.leaves.push_back({1, 0.1});
    EXPECT_THROW(Cluster(small_workload(), cfg), std::invalid_argument);
  }
  {
    ClusterConfig cfg = drain_config(SyncMethod::kP3);
    cfg.autoscaler.enabled = true;
    cfg.autoscaler.slo_p99_iteration = 0.1;
    cfg.autoscaler.standby_nodes = 1;
    cfg.topology.racks = {{0, 1}, {2, 3}};
    EXPECT_THROW(Cluster(small_workload(), cfg), std::invalid_argument);
  }
}

// ---------------------------------------------------------------------------
// Determinism: autoscaled and draining runs are bit-identical at 1, 2 and
// 4 runner threads — the scale plane introduces no cross-run state.
// ---------------------------------------------------------------------------

TEST(ScalePlane, AutoscaledRunsBitIdenticalAcrossRunnerThreads) {
  struct Point {
    SyncMethod method;
    bool autoscale;
    bool leave;
  };
  const std::vector<Point> grid = {
      {SyncMethod::kP3, true, false},
      {SyncMethod::kBaseline, true, false},
      {SyncMethod::kP3, false, true},
      {SyncMethod::kPoseidonWFBP, false, true},
  };
  const auto run_point = [](const Point& p) {
    ClusterConfig cfg = drain_config(p.method);
    cfg.faults.lease_duration = 0.1;
    if (p.autoscale) {
      cfg.autoscaler.enabled = true;
      cfg.autoscaler.standby_nodes = 1;
      cfg.autoscaler.slo_p99_iteration = 0.005;
      cfg.autoscaler.hysteresis_ticks = 2;
      cfg.autoscaler.cooldown = 0.2;
    } else {
      cfg.faults.joins.push_back({4, 0.05});
      cfg.faults.leaves.push_back({1, 0.3});
    }
    Cluster cluster(small_workload(), cfg);
    auto r = cluster.run(1, 5);
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
      EXPECT_EQ(a.joins, b.joins) << "point " << i;
      EXPECT_EQ(a.migrations, b.migrations) << "point " << i;
      EXPECT_EQ(a.migrated_bytes, b.migrated_bytes) << "point " << i;
      EXPECT_EQ(a.drains_started, b.drains_started) << "point " << i;
      EXPECT_EQ(a.drains_completed, b.drains_completed) << "point " << i;
      EXPECT_EQ(a.scale_decisions, b.scale_decisions) << "point " << i;
      EXPECT_EQ(a.sheds, b.sheds) << "point " << i;
      EXPECT_EQ(a.slo_violation_ticks, b.slo_violation_ticks)
          << "point " << i;
      EXPECT_EQ(a.scale_decision_times, b.scale_decision_times)
          << "point " << i;
      EXPECT_EQ(a.dual_primary_windows, b.dual_primary_windows)
          << "point " << i;
    }
  }
}

}  // namespace
}  // namespace p3::ps
