// Rack-scale hierarchy end to end: hierarchical runs are bit-identical
// rerun-to-rerun and across runner thread counts, P3's urgent slices
// overtake queued bulk at an oversubscribed ToR uplink without a single
// priority inversion, rack aggregation conserves gradients exactly-once
// through aggregator crashes and rack-severing partitions, a fabric hop that
// a degradation's end puts ahead of its link's tail lands on time, and a
// flat configuration keeps the whole plane disarmed.
#include "ps/cluster.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <string>
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

net::Topology two_racks(double oversub) {
  net::Topology topo;
  topo.racks = {{0, 1}, {2, 3}};
  topo.oversubscription = oversub;
  return topo;
}

ClusterConfig hier_config(SyncMethod method, double oversub,
                          bool aggregation) {
  ClusterConfig cfg;
  cfg.n_workers = 4;
  cfg.method = method;
  cfg.bandwidth = gbps(1.0);
  cfg.latency = us(25);
  cfg.slice_params = 50'000;
  cfg.topology = two_racks(oversub);
  cfg.rack_aggregation = aggregation;
  return cfg;
}

constexpr SyncMethod kAllMethods[] = {
    SyncMethod::kBaseline, SyncMethod::kSlicingOnly, SyncMethod::kP3,
    SyncMethod::kTensorFlowStyle, SyncMethod::kPoseidonWFBP};

/// Exactly-once check: every slice completed every round, every worker saw
/// every layer.
void expect_converged(const Cluster& cluster, int layers,
                      std::int64_t iterations, int workers) {
  for (std::int64_t s = 0; s < cluster.partition().num_slices(); ++s) {
    EXPECT_EQ(cluster.slice_version(s), iterations) << "slice " << s;
  }
  for (int w = 0; w < workers; ++w) {
    for (int l = 0; l < layers; ++l) {
      EXPECT_EQ(cluster.worker_layer_version(w, l), iterations)
          << "worker " << w << " layer " << l;
    }
  }
}

// ---------------------------------------------------------------------------
// Construction contracts.
// ---------------------------------------------------------------------------

TEST(HierConfig, RejectsElasticJoinsUnderTopology) {
  ClusterConfig cfg = hier_config(SyncMethod::kP3, 2.0, false);
  cfg.faults.joins.push_back({4, 0.1});
  EXPECT_THROW(Cluster(small_workload(), cfg), std::invalid_argument);
}

TEST(HierConfig, RejectsAggregationWithoutTopology) {
  ClusterConfig cfg = hier_config(SyncMethod::kP3, 2.0, true);
  cfg.topology = net::Topology{};
  EXPECT_THROW(Cluster(small_workload(), cfg), std::invalid_argument);
}

TEST(HierConfig, RejectsAggregationWithDedicatedServers) {
  ClusterConfig cfg = hier_config(SyncMethod::kP3, 2.0, true);
  cfg.dedicated_servers = true;
  cfg.topology.racks = {{0, 1, 2, 3}, {4, 5, 6, 7}};  // workers + servers
  EXPECT_THROW(Cluster(small_workload(), cfg), std::invalid_argument);
}

TEST(HierConfig, MalformedTopologyRejectedAtClusterConstruction) {
  ClusterConfig cfg = hier_config(SyncMethod::kP3, 0.5, false);
  EXPECT_THROW(Cluster(small_workload(), cfg), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Flat configurations keep the plane disarmed: no rack state, all counters
// zero — the pre-hierarchy protocol, bit for bit.
// ---------------------------------------------------------------------------

TEST(HierPlane, StaysDisarmedOnFlatTopology) {
  ClusterConfig cfg = hier_config(SyncMethod::kP3, 2.0, false);
  cfg.topology = net::Topology{};
  Cluster cluster(small_workload(), cfg);
  const auto result = cluster.run(1, 3);
  cluster.drain();
  EXPECT_FALSE(cluster.hierarchy_armed());
  EXPECT_FALSE(cluster.rack_aggregation_armed());
  EXPECT_EQ(result.uplink_overtakes, 0);
  EXPECT_EQ(result.uplink_priority_inversions, 0);
  EXPECT_EQ(result.tor_uplink_bytes, 0);
  EXPECT_EQ(result.agg_combined_pushes, 0);
  EXPECT_EQ(result.agg_param_broadcasts, 0);
  EXPECT_EQ(result.agg_fallback_pushes, 0);
  expect_converged(cluster, 4, 4, 4);
}

// ---------------------------------------------------------------------------
// Golden determinism: every method converges exactly-once on the
// oversubscribed fabric (with and without aggregation), and hierarchical
// sweeps are bit-identical rerun-to-rerun and across 1/2/4 runner threads.
// ---------------------------------------------------------------------------

class HierAllMethods
    : public ::testing::TestWithParam<std::tuple<SyncMethod, bool>> {};

TEST_P(HierAllMethods, ConvergesExactlyOnceOnOversubscribedFabric) {
  const auto [method, aggregation] = GetParam();
  Cluster cluster(small_workload(), hier_config(method, 4.0, aggregation));
  const int iterations = 5;
  const auto result = cluster.run(2, iterations - 2);
  cluster.drain();

  EXPECT_TRUE(cluster.hierarchy_armed());
  EXPECT_EQ(cluster.rack_aggregation_armed(), aggregation);
  EXPECT_GT(result.tor_uplink_bytes, 0);
  EXPECT_EQ(result.uplink_priority_inversions, 0);
  if (aggregation) {
    // Every cross-tier push went through a rack pre-reduce...
    EXPECT_GT(result.agg_combined_pushes, 0);
    // ...and nothing needed the direct fallback on a healthy fabric.
    EXPECT_EQ(result.agg_fallback_pushes, 0);
  } else {
    EXPECT_EQ(result.agg_combined_pushes, 0);
  }
  expect_converged(cluster, 4, iterations, 4);
  EXPECT_TRUE(cluster.simulator().idle());
}

INSTANTIATE_TEST_SUITE_P(
    AllMethods, HierAllMethods,
    ::testing::Combine(::testing::ValuesIn(kAllMethods), ::testing::Bool()));

TEST(HierDeterminism, SweepBitIdenticalAcrossRunnerThreads) {
  struct Point {
    SyncMethod method;
    double oversub;
    bool aggregation;
  };
  const std::vector<Point> grid = {
      {SyncMethod::kP3, 4.0, true},
      {SyncMethod::kBaseline, 2.0, false},
      {SyncMethod::kPoseidonWFBP, 4.0, true},
  };
  const auto run_point = [](const Point& p) {
    Cluster cluster(small_workload(),
                    hier_config(p.method, p.oversub, p.aggregation));
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
      EXPECT_EQ(a.tor_uplink_bytes, b.tor_uplink_bytes) << "point " << i;
      EXPECT_EQ(a.uplink_overtakes, b.uplink_overtakes) << "point " << i;
      EXPECT_EQ(a.agg_combined_pushes, b.agg_combined_pushes)
          << "point " << i;
      EXPECT_EQ(a.agg_param_broadcasts, b.agg_param_broadcasts)
          << "point " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Priority semantics at the shared port: under 4:1 oversubscription P3's
// urgent first-layer slices overtake queued later-layer bulk at the ToR
// uplink, and the priority discipline never inverts. Baseline (single
// monolithic priority-0 pushes) has nothing to overtake with.
// ---------------------------------------------------------------------------

TEST(HierPriority, P3SlicesOvertakeBulkAtTheUplinkWithoutInversion) {
  Cluster cluster(small_workload(),
                  hier_config(SyncMethod::kP3, 4.0, false));
  const auto result = cluster.run(2, 3);
  cluster.drain();
  EXPECT_GT(result.uplink_overtakes, 0);
  EXPECT_EQ(result.uplink_priority_inversions, 0);
  expect_converged(cluster, 4, 5, 4);
}

TEST(HierPriority, FifoPortAblationForfeitsTheOvertakes) {
  ClusterConfig cfg = hier_config(SyncMethod::kP3, 4.0, false);
  cfg.topology.fifo_ports = true;
  Cluster cluster(small_workload(), cfg);
  const auto result = cluster.run(2, 3);
  cluster.drain();
  // FIFO service starts bulk while urgent slices wait: inversions appear,
  // overtakes vanish — and the protocol still converges (slower).
  EXPECT_EQ(result.uplink_overtakes, 0);
  EXPECT_GT(result.uplink_priority_inversions, 0);
  expect_converged(cluster, 4, 5, 4);
}

// ---------------------------------------------------------------------------
// Chaos composition: the aggregation tree must fail *down* to the direct
// path, never lose or double-apply a contribution.
// ---------------------------------------------------------------------------

ClusterConfig chaos_config(SyncMethod method) {
  ClusterConfig cfg = hier_config(method, 4.0, true);
  cfg.replication = 2;
  cfg.heartbeat_period = ms(5);
  cfg.suspicion_timeout = ms(25);
  cfg.max_sim_time = 60.0;  // fail fast if recovery wedges
  return cfg;
}

TEST(HierChaos, AggregatorCrashFallsBackToDirectPushExactlyOnce) {
  ClusterConfig cfg = chaos_config(SyncMethod::kP3);
  // Node 0 aggregates rack 0; crash it mid-run and bring it back. Its rack
  // peer (node 1) must re-route pushes directly to the shard leaders until
  // its view sees the aggregator alive again.
  cfg.faults.crashes.push_back({0, 0.08, 0.15});
  Cluster cluster(small_workload(), cfg);
  const int iterations = 6;
  const auto result = cluster.run(1, iterations - 1);
  cluster.drain();

  EXPECT_GT(result.crashes, 0);
  EXPECT_GT(result.restarts, 0);
  // The surviving rack peer bypassed the dead aggregator...
  EXPECT_GT(result.agg_fallback_pushes, 0);
  // ...the tree still carried traffic outside the outage...
  EXPECT_GT(result.agg_combined_pushes, 0);
  // ...and the contribution ledger kept every slice exactly-once through
  // the crash, the re-pushes, and any stale aggregated covers.
  expect_converged(cluster, 4, iterations, 4);
  EXPECT_TRUE(cluster.simulator().idle());
}

TEST(HierChaos, RackSeveringPartitionParksAndDrainsOnHeal) {
  ClusterConfig cfg = chaos_config(SyncMethod::kP3);
  cfg.faults.lease_duration = 0.1;
  // Cleave rack 0 from rack 1 (the uplink dies), then heal.
  net::NetPartition cut;
  cut.side_a = {0, 1};
  cut.side_b = {2, 3};
  cut.start = 0.05;
  cut.heal = 0.4;
  cfg.faults.partitions.push_back(cut);
  Cluster cluster(small_workload(), cfg);
  const int iterations = 6;
  const auto result = cluster.run(1, iterations - 1);
  cluster.drain();

  EXPECT_GT(result.partition_drops, 0);
  // The cut-off rack parked its cross-rack pushes instead of burning them
  // against a severed uplink...
  EXPECT_GT(result.parked_pushes, 0);
  // ...and heal drained them without loss or double-apply.
  EXPECT_EQ(result.cross_partition_deliveries, 0);
  EXPECT_EQ(result.dual_primary_windows, 0);
  expect_converged(cluster, 4, iterations, 4);
  EXPECT_TRUE(cluster.simulator().idle());
}


// ---------------------------------------------------------------------------
// Link order under a degradation. Each NIC's hops into its ToR travel as one
// in-order stream per link; a hop sent after a degradation window's extra
// latency ends reaches the ToR ahead of hops sent inside the window, and it
// must land at its own time, not behind them. Pinned: every measured output
// and event count of a run whose 2 ms window ends mid-iteration.
// ---------------------------------------------------------------------------

struct LinkOrderPin {
  double throughput;
  TimeS total_time;
  std::vector<TimeS> iteration_times;
  std::uint64_t run_events;    ///< events executed by run()
  std::uint64_t total_events;  ///< after drain()
  std::int64_t uplink_overtakes;
  Bytes wire_bytes;
};

LinkOrderPin degraded_fabric_run(SyncMethod method) {
  ClusterConfig cfg;
  cfg.seed = 42;
  cfg.faults.seed = 42;
  cfg.n_workers = 8;
  cfg.method = method;
  cfg.bandwidth = gbps(10);
  cfg.rx_bandwidth = gbps(100);
  net::Topology topo;
  topo.racks = {{0, 1, 2, 3}, {4, 5, 6, 7}};
  topo.oversubscription = 4.0;
  cfg.topology = topo;
  net::Degradation slow;
  slow.node = -1;
  slow.start = 0.0;
  slow.end = 0.15;
  slow.extra_latency = ms(2);
  cfg.faults.degradations.push_back(slow);
  Cluster cluster(model::workload_resnet50(), cfg);
  const RunResult r = cluster.run(1, 2);
  LinkOrderPin pin;
  pin.run_events = cluster.simulator().events_executed();
  cluster.drain();
  pin.total_events = cluster.simulator().events_executed();
  pin.throughput = r.throughput;
  pin.total_time = r.total_time;
  pin.iteration_times = r.iteration_times;
  pin.uplink_overtakes = r.uplink_overtakes;
  pin.wire_bytes = r.wire_bytes;
  return pin;
}

void expect_pin(const LinkOrderPin& got, const LinkOrderPin& want) {
  std::string times;
  for (const TimeS t : got.iteration_times) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%a ", t);
    times += buf;
  }
  SCOPED_TRACE(::testing::Message()
               << "measured " << got.run_events << " " << got.total_events
               << " " << got.uplink_overtakes << " " << got.wire_bytes
               << " " << std::hexfloat << got.throughput << " "
               << got.total_time << " {" << times << "}");
  EXPECT_EQ(got.throughput, want.throughput);
  EXPECT_EQ(got.total_time, want.total_time);
  EXPECT_EQ(got.iteration_times, want.iteration_times);
  EXPECT_EQ(got.run_events, want.run_events);
  EXPECT_EQ(got.total_events, want.total_events);
  EXPECT_EQ(got.uplink_overtakes, want.uplink_overtakes);
  EXPECT_EQ(got.wire_bytes, want.wire_bytes);
}

TEST(HierLinkOrder, BaselineHopsAheadOfTheirLinkTailLandOnTime) {
  expect_pin(degraded_fabric_run(SyncMethod::kBaseline),
             {0x1.127725eb4d9bep+6,
              0x1.15d11fb6572bap+1,
              {0x1.e33b97ddacfadp-1, 0x1.d7d41062e4d4ep-1},
              325870,
              430889,
              0,
              7469821948});
}

TEST(HierLinkOrder, P3HopsAheadOfTheirLinkTailLandOnTime) {
  expect_pin(degraded_fabric_run(SyncMethod::kP3),
             {0x1.75fb8fae916acp+6,
              0x1.ac8e5f46d86ep+0,
              {0x1.80176333c68f1p-1, 0x1.3c1d71000234cp-1},
              391968,
              459934,
              29792,
              5977506752});
}

}  // namespace
}  // namespace p3::ps
