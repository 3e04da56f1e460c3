// Forward gates on layers cut into many slices. A worker's layer gate opens
// at the oldest complete slice version it holds; the cluster tracks, per
// layer, how many slices are already past the gate and scans the layer only
// when that count fills. These runs drive that count through every way a
// slice version moves: plain rounds under each sync method, DSSP run-ahead
// (slices delivered ahead of the gate, so the count is redone after each
// opening), and a crash/restart or an elastic join (every slice held at -1
// while the gates keep their versions). Each must end with every gate of
// every live worker at warmup + measured.
#include "ps/cluster.h"

#include <gtest/gtest.h>

#include <vector>

#include "model/zoo.h"

namespace p3::ps {
namespace {

using core::SyncMethod;

constexpr int kLayers = 3;
constexpr std::int64_t kSliceParams = 1'000;
constexpr std::int64_t kLayerParams = 256 * kSliceParams;

model::Workload wide_workload() {
  model::Workload w;
  w.model = model::toy_uniform(kLayers, kLayerParams);
  w.batch_per_worker = 4;
  w.iter_compute_time = 0.020;
  return w;
}

ClusterConfig wide_config(SyncMethod method) {
  ClusterConfig cfg;
  cfg.n_workers = 4;
  cfg.method = method;
  cfg.bandwidth = gbps(1.0);
  cfg.latency = us(25);
  cfg.slice_params = kSliceParams;
  cfg.kvstore_threshold = 50'000;  // unsliced methods still split each layer
  cfg.max_sim_time = 60.0;         // fail fast if a gate wedges
  return cfg;
}

/// Every slice applied `iterations` rounds and every listed worker's gates
/// all opened to the target.
void expect_gates_open(const Cluster& cluster, std::int64_t iterations,
                       const std::vector<int>& workers) {
  for (std::int64_t s = 0; s < cluster.partition().num_slices(); ++s) {
    EXPECT_EQ(cluster.slice_version(s), iterations) << "slice " << s;
  }
  for (int w : workers) {
    for (int l = 0; l < kLayers; ++l) {
      EXPECT_EQ(cluster.worker_layer_version(w, l), iterations)
          << "worker " << w << " layer " << l;
    }
  }
}

class ForwardGate : public ::testing::TestWithParam<SyncMethod> {};

TEST_P(ForwardGate, ManySliceLayersOpenEveryGate) {
  Cluster cluster(wide_workload(), wide_config(GetParam()));
  const auto& per_layer = cluster.partition().layer_slices;
  const bool sliced = core::sync_config(GetParam()).slicing;
  for (const auto& slices : per_layer) {
    EXPECT_EQ(slices.size(), sliced ? 256u : 4u);
  }
  const int iterations = 6;
  const auto result = cluster.run(1, iterations - 1);
  cluster.drain();

  EXPECT_EQ(result.staleness_violations, 0);
  EXPECT_EQ(result.gate_wedge_ticks, 0);
  expect_gates_open(cluster, iterations, {0, 1, 2, 3});
  EXPECT_TRUE(cluster.simulator().idle());
}

INSTANTIATE_TEST_SUITE_P(
    AllMethods, ForwardGate,
    ::testing::Values(SyncMethod::kBaseline, SyncMethod::kSlicingOnly,
                      SyncMethod::kP3, SyncMethod::kTensorFlowStyle,
                      SyncMethod::kPoseidonWFBP, SyncMethod::kDSSP));

// Under a fixed staleness bound s the forward pass waits only for version
// iter - s, so workers push the next round before the last one's parameters
// are all back and a layer's slices arrive at mixed versions: when the gate
// opens, slices already past the new minimum must stay counted.
TEST(ForwardGateDssp, RunAheadSlicesStayCountedAcrossOpenings) {
  for (const std::int64_t s : {1, 2}) {
    ClusterConfig cfg = wide_config(SyncMethod::kDSSP);
    cfg.replication = 2;
    cfg.heartbeat_period = ms(5);
    cfg.suspicion_timeout = ms(25);
    cfg.staleness.fixed_s = s;

    Cluster cluster(wide_workload(), cfg);
    const int iterations = 8;
    const auto result = cluster.run(1, iterations - 1);
    cluster.drain();

    EXPECT_EQ(result.staleness_violations, 0) << "s = " << s;
    EXPECT_EQ(result.gate_wedge_ticks, 0) << "s = " << s;
    expect_gates_open(cluster, iterations, {0, 1, 2, 3});
  }
}

// A worker that crashes part-way through receiving a layer drops every
// slice to -1 while its gates keep their versions; after the restart the
// state transfer refills the layer from zero.
TEST(ForwardGateRecovery, WorkerCrashMidLayerRestartsCleanly) {
  for (const TimeS at : {0.030, 0.045, 0.060, 0.075, 0.090}) {
    ClusterConfig cfg = wide_config(SyncMethod::kP3);
    cfg.dedicated_servers = true;  // crash a pure worker node
    cfg.heartbeat_period = ms(5);
    cfg.suspicion_timeout = ms(25);
    cfg.faults.crashes.push_back({2, at, 0.04});

    Cluster cluster(wide_workload(), cfg);
    const int iterations = 6;
    RunResult result;
    ASSERT_NO_THROW(result = cluster.run(1, iterations - 1))
        << "crash at " << at;
    cluster.drain();

    EXPECT_EQ(result.worker_rejoins, 1) << "crash at " << at;
    expect_gates_open(cluster, iterations, {0, 1, 2, 3});
  }
}

// An elastic joiner starts with every slice at -1 and gates at 0, and syncs
// its parameters through the join handshake before its first iteration.
TEST(ForwardGateRecovery, ElasticJoinerOpensEveryGate) {
  ClusterConfig cfg = wide_config(SyncMethod::kP3);
  cfg.replication = 2;
  cfg.heartbeat_period = ms(5);
  cfg.suspicion_timeout = ms(25);
  cfg.faults.joins.push_back({4, 0.05});

  Cluster cluster(wide_workload(), cfg);
  const int iterations = 6;
  const auto result = cluster.run(1, iterations - 1);
  cluster.drain();

  EXPECT_EQ(result.joins, 1);
  expect_gates_open(cluster, iterations, {0, 1, 2, 3, 4});
  EXPECT_TRUE(cluster.simulator().idle());
}

}  // namespace
}  // namespace p3::ps
