// Cross-module integration tests: conservation between the network counters
// and the utilization monitor, dedicated-server deployments, wire
// compression, timeline-derived protocol assertions, and end-to-end
// consistency between the PS and allreduce substrates.
#include <gtest/gtest.h>

#include <algorithm>

#include "allreduce/ring.h"
#include "model/zoo.h"
#include "ps/cluster.h"
#include "runner/experiment.h"
#include "trace/timeline.h"

namespace p3 {
namespace {

model::Workload toy_workload(std::vector<std::int64_t> params,
                             TimeS compute = 0.010, int batch = 4) {
  model::Workload w;
  w.model = model::toy_custom(params);
  w.batch_per_worker = batch;
  w.iter_compute_time = compute;
  return w;
}

TEST(Integration, MonitorMatchesNetworkByteCounters) {
  // Every non-loopback byte the network accepts must appear in the monitor,
  // in both directions, across all nodes.
  ps::ClusterConfig cfg;
  cfg.n_workers = 3;
  cfg.method = core::SyncMethod::kP3;
  cfg.bandwidth = gbps(2);
  ps::Cluster cluster(toy_workload({200'000, 100'000}), cfg);
  net::UtilizationMonitor monitor(3, 0.010);
  cluster.attach_monitor(&monitor);
  cluster.run(0, 3);
  cluster.drain();

  double monitored_out = 0.0;
  double monitored_in = 0.0;
  for (int n = 0; n < 3; ++n) {
    monitored_out += monitor.total_bytes(n, net::Direction::kOut);
    monitored_in += monitor.total_bytes(n, net::Direction::kIn);
  }
  // Loopback traffic (worker<->colocated server) bypasses the monitor, so
  // monitored bytes are exactly the remote share: with uniform round-robin
  // placement that is hard to write in closed form, but out == in must hold
  // exactly and both must be below the total posted bytes.
  EXPECT_DOUBLE_EQ(monitored_out, monitored_in);
  EXPECT_GT(monitored_out, 0.0);
  EXPECT_LT(monitored_out,
            static_cast<double>(cluster.network().bytes_posted()));
}

TEST(Integration, DedicatedServersMoveAllTrafficToTheWire) {
  // Colocated: 1/n of the traffic is loopback. Dedicated: everything
  // crosses the network, and worker nodes never process server messages.
  auto measure_remote_bytes = [](bool dedicated) {
    ps::ClusterConfig cfg;
    cfg.n_workers = 2;
    cfg.method = core::SyncMethod::kP3;
    cfg.bandwidth = gbps(10);
    cfg.dedicated_servers = dedicated;
    ps::Cluster cluster(toy_workload({100'000}), cfg);
    const int nodes = dedicated ? 4 : 2;
    net::UtilizationMonitor monitor(nodes, 0.010);
    cluster.attach_monitor(&monitor);
    cluster.run(0, 2);
    cluster.drain();
    double total = 0.0;
    for (int n = 0; n < nodes; ++n) {
      total += monitor.total_bytes(n, net::Direction::kOut);
    }
    return total;
  };
  const double colocated = measure_remote_bytes(false);
  const double dedicated = measure_remote_bytes(true);
  // 2 workers colocated: half of pushes and half of broadcasts are
  // loopback; dedicated doubles wire traffic.
  EXPECT_NEAR(dedicated / colocated, 2.0, 0.05);
}

TEST(Integration, DedicatedServerInvariantsHold) {
  for (auto method : {core::SyncMethod::kBaseline, core::SyncMethod::kP3}) {
    ps::ClusterConfig cfg;
    cfg.n_workers = 3;
    cfg.method = method;
    cfg.bandwidth = gbps(2);
    cfg.dedicated_servers = true;
    ps::Cluster cluster(toy_workload({120'000, 60'000}), cfg);
    const int iterations = 3;
    cluster.run(0, iterations);
    cluster.drain();
    for (std::int64_t s = 0; s < cluster.partition().num_slices(); ++s) {
      EXPECT_EQ(cluster.slice_version(s), iterations);
    }
  }
}

TEST(Integration, WireCompressionReducesTrafficNotRounds) {
  auto run = [](double compression) {
    ps::ClusterConfig cfg;
    cfg.n_workers = 2;
    cfg.method = core::SyncMethod::kP3;
    cfg.bandwidth = gbps(1);
    cfg.wire_compression = compression;
    ps::Cluster cluster(toy_workload({400'000}), cfg);
    cluster.run(0, 3);
    cluster.drain();
    return std::pair<Bytes, std::int64_t>(cluster.network().bytes_posted(),
                                          cluster.rounds_completed());
  };
  const auto [bytes_plain, rounds_plain] = run(1.0);
  const auto [bytes_dgc, rounds_dgc] = run(50.0);
  EXPECT_EQ(rounds_plain, rounds_dgc);          // same protocol rounds
  EXPECT_LT(bytes_dgc, bytes_plain / 10);       // far fewer wire bytes
}

TEST(Integration, CompressionSpeedsUpConstrainedTraining) {
  runner::MeasureOptions opts;
  opts.warmup = 1;
  opts.measured = 4;
  ps::ClusterConfig cfg;
  cfg.n_workers = 4;
  cfg.method = core::SyncMethod::kBaseline;
  cfg.bandwidth = gbps(0.25);
  const auto w = toy_workload({2'000'000}, 0.02);
  const double plain = runner::measure_throughput(w, cfg, opts);
  cfg.wire_compression = 50.0;
  const double compressed = runner::measure_throughput(w, cfg, opts);
  EXPECT_GT(compressed, 2.0 * plain);
}

TEST(Integration, InvalidCompressionThrows) {
  ps::ClusterConfig cfg;
  cfg.wire_compression = 0.5;
  EXPECT_THROW(ps::Cluster(toy_workload({1000}), cfg), std::invalid_argument);
}

TEST(Integration, P3TimelineSendsFirstLayerBeforeLastLayer) {
  // Protocol-level assertion straight off the timeline: in steady state,
  // the worker's gradient push for layer 1 must leave *before* the push
  // for the final layer completes transmission, even though layer 1's
  // gradient is produced last — priority preempts the queued final layer.
  model::Workload w = toy_workload({100'000, 100'000, 1'000'000}, 0.006);
  ps::ClusterConfig cfg;
  cfg.n_workers = 2;
  cfg.method = core::SyncMethod::kP3;
  cfg.bandwidth = gbps(0.5);
  cfg.slice_params = 50'000;
  ps::Cluster cluster(w, cfg);
  trace::Timeline tl;
  cluster.attach_tracer(&tl.tracer());
  cluster.run(1, 2);

  const auto spans = tl.lane_spans("n0.tx");
  // Message labels use 0-based layer indices: gL0 = first layer's push.
  // Find a gL0 push that leaves while gL2 slices are still flowing — the
  // final layer's queued slices were preempted.
  bool preemption_seen = false;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].label != "gL0") continue;
    for (std::size_t j = i + 1; j < spans.size(); ++j) {
      if (spans[j].label == "gL2") {
        preemption_seen = true;
        break;
      }
    }
    if (preemption_seen) break;
  }
  EXPECT_TRUE(preemption_seen);
}

TEST(Integration, BaselineTimelineIsFifo) {
  // Under FIFO the gL1 push is always the last gradient of its iteration.
  model::Workload w = toy_workload({100'000, 100'000, 1'000'000}, 0.006);
  ps::ClusterConfig cfg;
  cfg.n_workers = 2;
  cfg.method = core::SyncMethod::kBaseline;
  cfg.bandwidth = gbps(0.5);
  // Dedicated servers: every push crosses the network, so the timeline
  // sees all three layers regardless of the random KVStore placement.
  cfg.dedicated_servers = true;
  ps::Cluster cluster(w, cfg);
  trace::Timeline tl;
  cluster.attach_tracer(&tl.tracer());
  cluster.run(0, 1);
  cluster.drain();

  const auto spans = tl.lane_spans("n0.tx");
  TimeS last_g0 = -1.0;  // first layer (0-based label gL0)
  TimeS last_g2 = -1.0;  // final layer
  for (const auto& s : spans) {
    if (s.label == "gL0") last_g0 = std::max(last_g0, s.start);
    if (s.label == "gL2") last_g2 = std::max(last_g2, s.start);
  }
  ASSERT_GE(last_g0, 0.0);
  ASSERT_GE(last_g2, 0.0);
  EXPECT_GT(last_g0, last_g2);
}

TEST(Integration, PsAndAllreduceAgreeAtComputeBound) {
  // With ample bandwidth both substrates must converge to the same
  // compute-bound throughput for the same workload.
  const auto w = toy_workload({300'000, 300'000}, 0.012);
  ps::ClusterConfig ps_cfg;
  ps_cfg.n_workers = 4;
  ps_cfg.method = core::SyncMethod::kP3;
  ps_cfg.bandwidth = gbps(100);
  ps::Cluster ps_cluster(w, ps_cfg);
  const double ps_tp = ps_cluster.run(2, 5).throughput;

  ar::ArConfig ar_cfg;
  ar_cfg.n_workers = 4;
  ar_cfg.schedule = ar::ArSchedule::kPrioritySliced;
  ar_cfg.bandwidth = gbps(100);
  ar::ArCluster ar_cluster(w, ar_cfg);
  const double ar_tp = ar_cluster.run(2, 5).throughput;

  const double ideal = 4.0 * 4 / 0.012;
  // Both carry a small, bounded residual of server/reduction work on the
  // critical path; they must sit near the compute bound and near each
  // other.
  EXPECT_GT(ps_tp, 0.85 * ideal);
  EXPECT_GT(ar_tp, 0.85 * ideal);
  EXPECT_LE(ps_tp, 1.01 * ideal);
  EXPECT_LE(ar_tp, 1.01 * ideal);
  EXPECT_NEAR(ps_tp, ar_tp, 0.12 * ideal);
}

TEST(Integration, SyncMethodsNeverChangeRoundSemantics) {
  // Whatever the schedule, after draining, every worker has the same
  // parameter version everywhere: scheduling must never skip or duplicate
  // an aggregation round (this is why P3 cannot affect convergence).
  for (auto method :
       {core::SyncMethod::kBaseline, core::SyncMethod::kSlicingOnly,
        core::SyncMethod::kP3, core::SyncMethod::kTensorFlowStyle}) {
    ps::ClusterConfig cfg;
    cfg.n_workers = 3;
    cfg.method = method;
    cfg.bandwidth = gbps(1);
    ps::Cluster cluster(toy_workload({150'000, 80'000, 40'000}), cfg);
    const int iterations = 4;
    cluster.run(0, iterations);
    cluster.drain();
    for (int wk = 0; wk < 3; ++wk) {
      for (int l = 0; l < 3; ++l) {
        EXPECT_EQ(cluster.worker_layer_version(wk, l), iterations)
            << core::sync_method_name(method);
      }
    }
  }
}

}  // namespace
}  // namespace p3
