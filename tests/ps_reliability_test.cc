// Reliable-delivery layer under injected faults: conservation and
// quiescence invariants must survive message loss, link flaps, degradation
// windows and node pauses, and the layer must be provably free when idle.
#include "ps/cluster.h"

#include <gtest/gtest.h>

#include <tuple>

#include "model/zoo.h"

namespace p3::ps {
namespace {

using core::SyncMethod;

model::Workload small_workload(int layers = 4, std::int64_t params = 120'000,
                               TimeS compute = 0.010) {
  model::Workload w;
  w.model = model::toy_uniform(layers, params);
  w.batch_per_worker = 4;
  w.iter_compute_time = compute;
  return w;
}

ClusterConfig small_config(SyncMethod method, int workers = 4,
                           double bandwidth_gbps = 1.0) {
  ClusterConfig cfg;
  cfg.n_workers = workers;
  cfg.method = method;
  cfg.bandwidth = gbps(bandwidth_gbps);
  cfg.latency = us(25);
  cfg.slice_params = 50'000;
  return cfg;
}

constexpr SyncMethod kAllMethods[] = {
    SyncMethod::kBaseline, SyncMethod::kSlicingOnly, SyncMethod::kP3,
    SyncMethod::kTensorFlowStyle, SyncMethod::kPoseidonWFBP};

void expect_converged(const Cluster& cluster, int workers, int layers,
                      std::int64_t iterations) {
  const auto& part = cluster.partition();
  for (std::int64_t s = 0; s < part.num_slices(); ++s) {
    EXPECT_EQ(cluster.slice_version(s), iterations) << "slice " << s;
  }
  EXPECT_EQ(cluster.rounds_completed(), part.num_slices() * iterations);
  for (int w = 0; w < workers; ++w) {
    for (int l = 0; l < layers; ++l) {
      EXPECT_EQ(cluster.worker_layer_version(w, l), iterations)
          << "worker " << w << " layer " << l;
    }
  }
}

// ---------------------------------------------------------------------------
// Conservation under loss, swept over methods x drop rates.
// ---------------------------------------------------------------------------

class LossInvariants
    : public ::testing::TestWithParam<std::tuple<SyncMethod, double>> {};

TEST_P(LossInvariants, EverySliceConvergesAndDrainQuiesces) {
  const auto [method, drop] = GetParam();
  ClusterConfig cfg = small_config(method);
  cfg.faults.drop_prob = drop;
  Cluster cluster(small_workload(), cfg);
  const int iterations = 4;
  const auto result = cluster.run(1, iterations - 1);
  cluster.drain();

  expect_converged(cluster, 4, 4, iterations);
  // drain() fully quiesced: every retransmission chain terminated and every
  // in-flight reliable message was acknowledged.
  EXPECT_TRUE(cluster.simulator().idle());
  EXPECT_EQ(cluster.reliable_in_flight(), 0);
  EXPECT_GT(result.throughput, 0.0);

  auto& net = cluster.network();
  EXPECT_EQ(net.messages_posted(),
            net.messages_delivered() + net.messages_dropped());
  EXPECT_GT(net.messages_dropped(), 0);
  // Every loss was repaired by at least one retransmission, and every
  // suppressed duplicate traces back to a distinct delivered retransmit.
  EXPECT_GE(cluster.retransmits(), 1);
  EXPECT_GE(cluster.timeouts_fired(), cluster.retransmits());
  EXPECT_LE(cluster.duplicates_suppressed(), cluster.retransmits());
  EXPECT_LT(cluster.goodput_bytes(), net.bytes_posted());
}

INSTANTIATE_TEST_SUITE_P(
    MethodsByLoss, LossInvariants,
    ::testing::Combine(::testing::ValuesIn(kAllMethods),
                       ::testing::Values(0.01, 0.05)),
    [](const auto& info) {
      return core::sync_method_name(std::get<0>(info.param)) + "_loss" +
             std::to_string(static_cast<int>(std::get<1>(info.param) * 100));
    });

// ---------------------------------------------------------------------------
// Idempotency: a retransmitted push is never double-aggregated.
// ---------------------------------------------------------------------------

// Every link gets 200 ms of extra latency and no loss: the round trip
// exceeds the 50 ms RTO floor, so nearly every message is retransmitted
// before its ack returns.
void add_spurious_retransmit_regime(ClusterConfig& cfg) {
  cfg.faults.degradations.push_back({-1, 0.0, 1e6, 1.0, ms(200)});
}

TEST(Reliability, SpuriousRetransmitsNeverDoubleAggregate) {
  // Dedup must suppress every duplicate or slice versions would overshoot.
  ClusterConfig cfg = small_config(SyncMethod::kP3);
  add_spurious_retransmit_regime(cfg);
  Cluster cluster(small_workload(), cfg);
  const int iterations = 3;
  cluster.run(0, iterations);
  cluster.drain();

  expect_converged(cluster, 4, 4, iterations);
  EXPECT_GT(cluster.retransmits(), 0);
  EXPECT_GT(cluster.duplicates_suppressed(), 0);
  // Nothing was dropped, so every retransmitted copy was delivered and
  // every one of them had to be suppressed as a duplicate.
  EXPECT_EQ(cluster.network().messages_dropped(), 0);
  EXPECT_EQ(cluster.duplicates_suppressed(), cluster.retransmits());
  EXPECT_EQ(cluster.reliable_in_flight(), 0);
}

TEST(Reliability, BaselineNotifyPullSurviveSpuriousRetransmits) {
  ClusterConfig cfg = small_config(SyncMethod::kBaseline);
  add_spurious_retransmit_regime(cfg);
  Cluster cluster(small_workload(), cfg);
  const int iterations = 3;
  cluster.run(0, iterations);
  cluster.drain();
  expect_converged(cluster, 4, 4, iterations);
  EXPECT_EQ(cluster.duplicates_suppressed(), cluster.retransmits());
}

// ---------------------------------------------------------------------------
// Fault flavors beyond uniform loss.
// ---------------------------------------------------------------------------

TEST(Reliability, SurvivesLinkFlap) {
  ClusterConfig cfg = small_config(SyncMethod::kP3);
  // Node 1's NIC flaps both ways for 30 ms early in the run.
  cfg.faults.flaps.push_back({1, -1, 0.005, 0.035});
  cfg.faults.flaps.push_back({-1, 1, 0.005, 0.035});
  Cluster cluster(small_workload(), cfg);
  const int iterations = 4;
  cluster.run(0, iterations);
  cluster.drain();
  expect_converged(cluster, 4, 4, iterations);
  EXPECT_GT(cluster.network().messages_dropped(), 0);
  EXPECT_TRUE(cluster.simulator().idle());
}

TEST(Reliability, SurvivesDegradationAndPause) {
  ClusterConfig cfg = small_config(SyncMethod::kP3);
  // 80% bandwidth dip + 1 ms latency spike on node 2, and a 20 ms freeze
  // of node 3 (straggler): no loss, so no retransmission is *required*,
  // but timers must stay spurious-safe and the run must still converge.
  cfg.faults.degradations.push_back({2, 0.0, 0.05, 0.2, ms(1)});
  cfg.faults.pauses.push_back({3, 0.01, 0.02});
  Cluster cluster(small_workload(), cfg);
  const int iterations = 4;
  const auto result = cluster.run(0, iterations);
  cluster.drain();
  expect_converged(cluster, 4, 4, iterations);
  EXPECT_EQ(cluster.network().messages_dropped(), 0);
  EXPECT_GT(result.throughput, 0.0);
}

TEST(Reliability, LossSlowsButDoesNotStop) {
  ClusterConfig cfg = small_config(SyncMethod::kP3, 4, 10.0);
  Cluster clean(small_workload(), cfg);
  cfg.faults.drop_prob = 0.05;
  Cluster lossy(small_workload(), cfg);
  const double clean_tp = clean.run(1, 4).throughput;
  const double lossy_tp = lossy.run(1, 4).throughput;
  EXPECT_GT(lossy_tp, 0.0);
  EXPECT_LT(lossy_tp, clean_tp);
}

// ---------------------------------------------------------------------------
// Determinism.
// ---------------------------------------------------------------------------

TEST(Reliability, SameSeedSameFaultsBitIdentical) {
  // Satellite: two runs with identical seed, nonzero compute jitter and an
  // active FaultPlan must produce bit-identical iteration times and
  // identical fault/reliability counters.
  auto run_once = [] {
    ClusterConfig cfg = small_config(SyncMethod::kP3);
    cfg.compute_jitter = 0.1;
    cfg.faults.drop_prob = 0.02;
    cfg.faults.degradations.push_back({1, 0.01, 0.03, 0.5, us(100)});
    Cluster cluster(small_workload(), cfg);
    auto result = cluster.run(1, 5);
    cluster.drain();
    return result;
  };
  const auto a = run_once();
  const auto b = run_once();
  ASSERT_EQ(a.iteration_times.size(), b.iteration_times.size());
  for (std::size_t i = 0; i < a.iteration_times.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.iteration_times[i], b.iteration_times[i]) << i;
  }
  EXPECT_DOUBLE_EQ(a.throughput, b.throughput);
  EXPECT_EQ(a.messages_dropped, b.messages_dropped);
  EXPECT_EQ(a.retransmits, b.retransmits);
  EXPECT_EQ(a.timeouts_fired, b.timeouts_fired);
  EXPECT_EQ(a.duplicates_suppressed, b.duplicates_suppressed);
  EXPECT_EQ(a.wire_bytes, b.wire_bytes);
}

TEST(Reliability, SameSeedJitterOnlyBitIdentical) {
  // Satellite: determinism also holds for plain compute jitter, no faults.
  auto run_once = [] {
    ClusterConfig cfg = small_config(SyncMethod::kBaseline);
    cfg.compute_jitter = 0.2;
    Cluster cluster(small_workload(), cfg);
    return cluster.run(1, 5);
  };
  const auto a = run_once();
  const auto b = run_once();
  ASSERT_EQ(a.iteration_times.size(), b.iteration_times.size());
  for (std::size_t i = 0; i < a.iteration_times.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.iteration_times[i], b.iteration_times[i]) << i;
  }
}

TEST(Reliability, DifferentFaultSeedsDiverge) {
  auto run_with_seed = [](std::uint64_t seed) {
    ClusterConfig cfg = small_config(SyncMethod::kP3);
    cfg.faults.drop_prob = 0.05;
    cfg.faults.seed = seed;
    Cluster cluster(small_workload(), cfg);
    auto result = cluster.run(0, 4);
    cluster.drain();
    return result.messages_dropped;
  };
  // With ~hundreds of messages at 5% loss, two independent drop streams
  // matching exactly is vanishingly unlikely.
  EXPECT_NE(run_with_seed(1), run_with_seed(20240807));
}

// ---------------------------------------------------------------------------
// Zero-cost when idle.
// ---------------------------------------------------------------------------

TEST(Reliability, EmptyPlanKeepsLayerDisarmed) {
  Cluster cluster(small_workload(), small_config(SyncMethod::kP3));
  const auto result = cluster.run(0, 3);
  cluster.drain();
  EXPECT_FALSE(cluster.reliable_transport_armed());
  EXPECT_EQ(cluster.acks_sent(), 0);
  EXPECT_EQ(cluster.retransmits(), 0);
  EXPECT_EQ(cluster.timeouts_fired(), 0);
  EXPECT_EQ(cluster.duplicates_suppressed(), 0);
  EXPECT_EQ(result.messages_dropped, 0);
  // No acks on the wire: posted messages are exactly the protocol's own.
  EXPECT_EQ(cluster.network().messages_posted(),
            cluster.pushes_sent() + cluster.params_sent() +
                cluster.notifies_sent() + cluster.pulls_sent());
}

TEST(Reliability, EmptyPlanMatchesFaultFreeThroughput) {
  // An inactive FaultPlan must not perturb the simulation at all: the
  // throughput and per-iteration times must be bit-identical to a config
  // that never mentions faults.
  auto run_config = [](bool touch_plan) {
    ClusterConfig cfg = small_config(SyncMethod::kP3);
    if (touch_plan) cfg.faults = net::FaultPlan{};  // explicit empty plan
    Cluster cluster(small_workload(), cfg);
    return cluster.run(1, 5);
  };
  const auto a = run_config(false);
  const auto b = run_config(true);
  EXPECT_DOUBLE_EQ(a.throughput, b.throughput);
  ASSERT_EQ(a.iteration_times.size(), b.iteration_times.size());
  for (std::size_t i = 0; i < a.iteration_times.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.iteration_times[i], b.iteration_times[i]) << i;
  }
}

TEST(Reliability, InvalidReliabilityConfigsThrow) {
  ClusterConfig bad_rto = small_config(SyncMethod::kP3);
  bad_rto.min_rto = 0.0;
  EXPECT_THROW(Cluster(small_workload(), bad_rto), std::invalid_argument);
  ClusterConfig bad_backoff = small_config(SyncMethod::kP3);
  bad_backoff.rto_backoff = 0.5;
  EXPECT_THROW(Cluster(small_workload(), bad_backoff), std::invalid_argument);
  ClusterConfig bad_drop = small_config(SyncMethod::kP3);
  bad_drop.faults.drop_prob = 2.0;
  EXPECT_THROW(Cluster(small_workload(), bad_drop), std::invalid_argument);
  ClusterConfig bad_cap = small_config(SyncMethod::kP3);
  bad_cap.max_rto = bad_cap.min_rto / 2;
  EXPECT_THROW(Cluster(small_workload(), bad_cap), std::invalid_argument);
  ClusterConfig bad_jitter = small_config(SyncMethod::kP3);
  bad_jitter.rto_jitter = 1.5;
  EXPECT_THROW(Cluster(small_workload(), bad_jitter), std::invalid_argument);
  bad_jitter.rto_jitter = -0.1;
  EXPECT_THROW(Cluster(small_workload(), bad_jitter), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Backoff cap + jitter: a long blackout must not push timers into unbounded
// exponential territory — with the cap, recovery after the link returns is
// bounded by roughly one capped RTO, not by the backoff history.
// ---------------------------------------------------------------------------

TEST(Reliability, BackoffCapBoundsRecoveryAfterLongFlap) {
  // Node 1's NIC goes completely dark for a full 5 seconds. Every probe
  // during the blackout dies, so timers back off the whole time.
  auto run_once = [](TimeS max_rto, double jitter) {
    ClusterConfig cfg = small_config(SyncMethod::kP3);
    cfg.faults.flaps.push_back({1, -1, 0.05, 5.05});
    cfg.faults.flaps.push_back({-1, 1, 0.05, 5.05});
    cfg.max_rto = max_rto;
    cfg.rto_jitter = jitter;
    Cluster cluster(small_workload(), cfg);
    const int iterations = 4;
    auto result = cluster.run(0, iterations);
    cluster.drain();
    expect_converged(cluster, 4, 4, iterations);
    EXPECT_GT(result.retransmits, 0);
    return result.total_time;
  };
  // Capped at 500 ms (+10% jitter), the first probe after the flap clears
  // lands within ~0.55 s of 5.05; the run finishes well inside 7 s. An
  // uncapped (10 s ceiling) backoff may idle for seconds after the link is
  // already healthy — the cap must never lose to it.
  const TimeS capped = run_once(0.5, 0.1);
  EXPECT_LT(capped, 7.0);
  const TimeS uncapped = run_once(10.0, 0.0);
  EXPECT_LE(capped, uncapped);
}

TEST(Reliability, JitteredRetransmissionsStayDeterministic) {
  // Jitter draws flow through the cluster-seeded RNG: same seed, same
  // fault plan => bit-identical runs, even with jitter enabled.
  auto run_once = [] {
    ClusterConfig cfg = small_config(SyncMethod::kP3);
    cfg.faults.drop_prob = 0.05;
    cfg.rto_jitter = 0.25;
    cfg.max_rto = 0.4;
    Cluster cluster(small_workload(), cfg);
    auto result = cluster.run(1, 4);
    cluster.drain();
    return result;
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_DOUBLE_EQ(a.total_time, b.total_time);
  EXPECT_EQ(a.retransmits, b.retransmits);
  EXPECT_EQ(a.timeouts_fired, b.timeouts_fired);
  EXPECT_EQ(a.wire_bytes, b.wire_bytes);
}

// ---------------------------------------------------------------------------
// Dedicated-server deployments recover too.
// ---------------------------------------------------------------------------

// ---------------------------------------------------------------------------
// Dedup-table GC: a long lossy run must not grow the per-node msg-id dedup
// state monotonically. Once every id below the oldest still-pending send is
// final, the GC advances an explicit watermark and drops those entries;
// late duplicates below the watermark are acked and suppressed without a
// table hit, so correctness is unchanged.
// ---------------------------------------------------------------------------

TEST(Reliability, DedupStateStaysBoundedOnLongChaoticRuns) {
  ClusterConfig cfg = small_config(SyncMethod::kP3);
  cfg.slice_params = 5'000;  // 16 slices: lots of reliable traffic per iter
  cfg.faults.drop_prob = 0.02;
  cfg.max_sim_time = 120.0;
  Cluster cluster(small_workload(2, 40'000, 0.002), cfg);
  const int iterations = 200;
  cluster.run(0, iterations);
  cluster.drain();

  expect_converged(cluster, 4, 2, iterations);
  EXPECT_EQ(cluster.reliable_in_flight(), 0);
  for (int n = 0; n < 4; ++n) {
    // Each node received thousands of reliable messages; the table holds at
    // most one GC window's worth (kDedupGcThreshold = 4096) at any time.
    EXPECT_LE(cluster.dedup_entries(n), 4096) << "node " << n;
    // The watermark actually advanced — the bound is GC at work, not an
    // undersized run.
    EXPECT_GT(cluster.dedup_floor(n), 0) << "node " << n;
  }
}

TEST(Reliability, DedicatedServersConvergeUnderLoss) {
  ClusterConfig cfg = small_config(SyncMethod::kP3, 2);
  cfg.dedicated_servers = true;
  cfg.faults.drop_prob = 0.05;
  Cluster cluster(small_workload(), cfg);
  const int iterations = 3;
  cluster.run(0, iterations);
  cluster.drain();
  expect_converged(cluster, 2, 4, iterations);
  EXPECT_TRUE(cluster.simulator().idle());
}

}  // namespace
}  // namespace p3::ps
