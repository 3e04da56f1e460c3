// Critical-path blame attribution over real traced runs: the walk must
// cover every iteration window exactly (telescoping contract), stay
// deterministic across reruns, and reproduce the paper's headline — P3
// removes the network wait from the critical path when the gradient volume
// fits under backward compute.
#include "obs/critpath.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

#include "model/zoo.h"
#include "obs/tracer.h"
#include "ps/cluster.h"

namespace p3::ps {
namespace {

using core::SyncMethod;

constexpr SyncMethod kAllMethods[] = {
    SyncMethod::kBaseline, SyncMethod::kSlicingOnly, SyncMethod::kP3,
    SyncMethod::kTensorFlowStyle, SyncMethod::kPoseidonWFBP};

model::Workload small_workload() {
  model::Workload w;
  w.model = model::toy_uniform(4, 120'000);
  w.batch_per_worker = 4;
  w.iter_compute_time = 0.020;
  return w;
}

ClusterConfig base_config(SyncMethod method, double bandwidth_gbps = 2.0) {
  ClusterConfig cfg;
  cfg.n_workers = 3;
  cfg.method = method;
  cfg.bandwidth = gbps(bandwidth_gbps);
  cfg.latency = us(25);
  cfg.slice_params = 50'000;
  cfg.max_sim_time = 60.0;
  return cfg;
}

obs::BlameReport traced_blame(const ClusterConfig& cfg, int warmup = 1,
                              int measured = 3) {
  Cluster cluster(small_workload(), cfg);
  obs::Tracer tracer;
  cluster.attach_tracer(&tracer);
  cluster.run(warmup, measured);
  return obs::analyze_critical_path(tracer, warmup);
}

struct TempFile {
  std::string path;
  explicit TempFile(const std::string& name) {
    path = ::testing::TempDir() + name;
  }
  ~TempFile() { std::remove(path.c_str()); }
};

class CritpathAllMethods : public ::testing::TestWithParam<SyncMethod> {};

TEST_P(CritpathAllMethods, BlameCoversEveryIterationWindow) {
  const obs::BlameReport blame = traced_blame(base_config(GetParam()));
  EXPECT_TRUE(blame.problems.empty());
  ASSERT_EQ(blame.iterations.size(), 3u);
  EXPECT_GT(blame.events_processed, 0);
  // Fault-free fixed-roster traces resolve every chain link.
  EXPECT_EQ(blame.chain_stalls, 0);
  double total = 0.0;
  for (const obs::IterationBlame& ib : blame.iterations) {
    EXPECT_GT(ib.window(), 0.0);
    // The telescoping contract: segments partition the window exactly.
    EXPECT_NEAR(ib.attributed(), ib.window(), 1e-9);
    total += ib.window();
  }
  EXPECT_NEAR(blame.total_s, total, 1e-9);
  EXPECT_GE(blame.network_share(), 0.0);
  EXPECT_LE(blame.network_share(), 1.0);
  // Shares over all categories sum to 1 because seconds sum to the window.
  double share_sum = 0.0;
  for (int c = 0; c < obs::kBlameCount; ++c) {
    share_sum += blame.share(static_cast<obs::Blame>(c));
  }
  EXPECT_NEAR(share_sum, 1.0, 1e-9);
}

/// `from`'s trace recorded again in reverse order: the same tables, but
/// every track's spans and flow ends, the flow starts, and the server-receive
/// and parameter-ready lifecycle records arrive in the opposite order. The
/// other lifecycle records keep theirs: the walk reads a slice's sends and
/// enqueues in record order.
void record_reversed(const obs::Tracer& from, obs::Tracer& to) {
  for (const obs::Track& track : from.tracks()) to.track(track.name);
  for (const std::string& text : from.labels()) to.label(text);
  for (std::size_t i = from.events().size(); i-- > 0;) {
    const obs::Event& e = from.events()[i];
    switch (e.kind) {
      case obs::EventKind::kSpan:
        to.span(e.track, e.t0, e.t1(), e.label);
        break;
      case obs::EventKind::kInstant:
        to.instant(from.track_name(e.track), e.t0, from.label_text(e.label));
        break;
      case obs::EventKind::kCounter:
        to.counter(e.track, e.t0, e.value());
        break;
      case obs::EventKind::kFlowStart:
        to.flow_start(e.track, e.t0, e.flow(), e.label);
        break;
      case obs::EventKind::kFlowEnd:
        to.flow_end(e.track, e.t0, e.flow(), e.label);
        break;
    }
  }
  std::vector<obs::LifecycleRecord> records = from.lifecycle_records();
  const auto looked_up_by_time = [](const obs::LifecycleRecord& r) {
    return r.stage == obs::Stage::kServerRecv ||
           r.stage == obs::Stage::kParamReady;
  };
  std::vector<obs::LifecycleRecord> reversed;
  std::copy_if(records.rbegin(), records.rend(), std::back_inserter(reversed),
               looked_up_by_time);
  auto next = reversed.begin();
  for (obs::LifecycleRecord& r : records) {
    if (looked_up_by_time(r)) r = *next++;
    to.lifecycle(r.stage, r.worker, r.slice, r.layer, r.iteration, r.priority,
                 r.bytes, r.t);
  }
}

TEST_P(CritpathAllMethods, BlameDoesNotDependOnRecordOrder) {
  Cluster cluster(small_workload(), base_config(GetParam()));
  obs::Tracer tracer;
  cluster.attach_tracer(&tracer);
  cluster.run(1, 3);
  obs::Tracer reversed;
  record_reversed(tracer, reversed);
  std::size_t unordered = 0;
  for (std::uint32_t k = 0; k < reversed.tracks().size(); ++k) {
    unordered += reversed.spans_on(k).in_order ? 0 : 1;
  }
  ASSERT_GT(unordered, 0u);
  ASSERT_FALSE(reversed.flow_starts().in_order);

  // The engine reads every list in start (flow id) order and looks the
  // reversed lifecycle records up by time, so it sorts them all back into
  // the order the run recorded them in.
  const obs::BlameReport want = obs::analyze_critical_path(tracer, 1);
  const obs::BlameReport got = obs::analyze_critical_path(reversed, 1);
  EXPECT_TRUE(got.problems.empty());
  EXPECT_EQ(got.chain_stalls, want.chain_stalls);
  EXPECT_EQ(got.events_processed, want.events_processed);
  ASSERT_EQ(got.iterations.size(), want.iterations.size());
  for (std::size_t i = 0; i < want.iterations.size(); ++i) {
    EXPECT_EQ(got.iterations[i].window_start, want.iterations[i].window_start);
    EXPECT_EQ(got.iterations[i].window_end, want.iterations[i].window_end);
    EXPECT_EQ(got.iterations[i].binding_worker,
              want.iterations[i].binding_worker);
    EXPECT_EQ(got.iterations[i].seconds, want.iterations[i].seconds);
  }
}

INSTANTIATE_TEST_SUITE_P(AllMethods, CritpathAllMethods,
                         ::testing::ValuesIn(kAllMethods));

TEST(Critpath, SkipDropsWarmupPrefix) {
  const ClusterConfig cfg = base_config(SyncMethod::kP3);
  Cluster cluster(small_workload(), cfg);
  obs::Tracer tracer;
  cluster.attach_tracer(&tracer);
  cluster.run(1, 3);
  const obs::BlameReport all = obs::analyze_critical_path(tracer, 0);
  const obs::BlameReport measured = obs::analyze_critical_path(tracer, 1);
  ASSERT_EQ(all.iterations.size(), 4u);
  ASSERT_EQ(measured.iterations.size(), 3u);
  // The first measured window starts at the warmup prefix's global finish.
  EXPECT_DOUBLE_EQ(measured.iterations[0].window_start,
                   all.iterations[0].window_end);
}

TEST(Critpath, DeterministicAcrossReruns) {
  const ClusterConfig cfg = base_config(SyncMethod::kP3);
  const obs::BlameReport a = traced_blame(cfg);
  const obs::BlameReport b = traced_blame(cfg);
  EXPECT_EQ(obs::format_blame(a), obs::format_blame(b));
  EXPECT_EQ(obs::format_what_ifs(obs::standard_what_ifs(a)),
            obs::format_what_ifs(obs::standard_what_ifs(b)));
}

TEST(Critpath, P3CollapsesNetworkShareWhenTrafficFitsUnderCompute) {
  // 2 Gbps: the toy model's gradients serialize in well under the backward
  // pass, so a priority schedule can hide them completely while FIFO
  // pipelines still pay queue + wire time on the path.
  const obs::BlameReport base =
      traced_blame(base_config(SyncMethod::kBaseline));
  const obs::BlameReport tf =
      traced_blame(base_config(SyncMethod::kTensorFlowStyle));
  const obs::BlameReport p3 = traced_blame(base_config(SyncMethod::kP3));
  EXPECT_LT(p3.network_share(), base.network_share());
  EXPECT_LT(p3.network_share(), tf.network_share());
}

TEST(Critpath, WhatIfKeepSemantics) {
  const obs::BlameReport blame = traced_blame(base_config(SyncMethod::kP3));
  const double mean =
      blame.total_s / static_cast<double>(blame.iterations.size());
  std::array<double, obs::kBlameCount> keep;
  keep.fill(1.0);
  // Keeping every category untouched reproduces the measured mean.
  EXPECT_NEAR(obs::estimate_mean_iteration(blame, keep), mean, 1e-12);
  keep.fill(0.0);
  EXPECT_NEAR(obs::estimate_mean_iteration(blame, keep), 0.0, 1e-12);

  const std::vector<obs::WhatIf> panel = obs::standard_what_ifs(blame);
  ASSERT_EQ(panel.size(), 3u);
  for (const obs::WhatIf& wi : panel) {
    // Interventions only remove path time, so estimates are lower bounds.
    EXPECT_LE(wi.estimated_mean_iteration_s, mean + 1e-12);
    EXPECT_GE(wi.speedup_vs_measured, 1.0 - 1e-9);
  }
}

TEST(Critpath, BlameCsvRoundTrips) {
  const obs::BlameReport blame =
      traced_blame(base_config(SyncMethod::kBaseline));
  TempFile file("obs_critpath_roundtrip.csv");
  obs::write_blame_csv(blame, file.path);
  const obs::BlameReport loaded = obs::load_blame_csv(file.path);
  ASSERT_EQ(loaded.iterations.size(), blame.iterations.size());
  for (std::size_t i = 0; i < blame.iterations.size(); ++i) {
    EXPECT_EQ(loaded.iterations[i].iteration, blame.iterations[i].iteration);
    for (int c = 0; c < obs::kBlameCount; ++c) {
      EXPECT_NEAR(loaded.iterations[i].seconds[static_cast<std::size_t>(c)],
                  blame.iterations[i].seconds[static_cast<std::size_t>(c)],
                  1e-8);
    }
  }
  EXPECT_NEAR(loaded.total_s, blame.total_s, 1e-6);
}

TEST(Critpath, LoadRejectsForeignCsv) {
  TempFile file("obs_critpath_bad.csv");
  std::FILE* f = std::fopen(file.path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("a,b,c\n1,2,3\n", f);
  std::fclose(f);
  EXPECT_THROW(obs::load_blame_csv(file.path), std::runtime_error);
}

TEST(Critpath, DiffAlignsByIterationAndSelfDiffIsZero) {
  const obs::BlameReport a = traced_blame(base_config(SyncMethod::kBaseline),
                                          /*warmup=*/1, /*measured=*/3);
  const obs::BlameReport b = traced_blame(base_config(SyncMethod::kBaseline),
                                          /*warmup=*/1, /*measured=*/2);
  const obs::BlameDiff self = obs::diff_blame(a, a);
  EXPECT_EQ(self.iterations_compared, 3);
  EXPECT_NEAR(self.delta_total_s, 0.0, 1e-12);
  for (double d : self.delta_seconds) EXPECT_NEAR(d, 0.0, 1e-12);
  // Different-length runs compare the aligned prefix.
  EXPECT_EQ(obs::diff_blame(a, b).iterations_compared, 2);
  // A slower variant shows up as positive deltas: diff Baseline at 2 Gbps
  // against the same protocol throttled to 0.5 Gbps.
  const obs::BlameReport slow =
      traced_blame(base_config(SyncMethod::kBaseline, 0.5));
  const obs::BlameDiff diff = obs::diff_blame(a, slow);
  EXPECT_GT(diff.delta_total_s, 0.0);
  const std::string text = obs::format_blame_diff(diff);
  EXPECT_NE(text.find("aligned iterations"), std::string::npos);
}

TEST(Critpath, EmptyTraceIsMalformed) {
  obs::Tracer tracer;
  const obs::BlameReport blame = obs::analyze_critical_path(tracer, 0);
  EXPECT_TRUE(blame.iterations.empty());
  EXPECT_FALSE(blame.problems.empty());
}

TEST(Critpath, TwoTracksNamingOneLaneAreMalformed) {
  // "n01.rx" and "n1.rx" both parse as node 1's receive lane; the graph
  // keeps one span vector per lane, so the trace is rejected rather than
  // one of the two losing its spans.
  obs::Tracer tracer;
  tracer.span("w0.cmp", 0.0, 1.0, "F1");
  tracer.span("w0.cmp", 1.0, 2.0, "B1");
  tracer.span("n1.rx", 0.0, 0.5, "pL0");
  tracer.span("n01.rx", 0.5, 1.0, "pL0");
  const obs::BlameReport blame = obs::analyze_critical_path(tracer, 0);
  ASSERT_EQ(blame.problems.size(), 1u);
  EXPECT_NE(blame.problems[0].find("'n1.rx' and 'n01.rx'"), std::string::npos);
  EXPECT_TRUE(blame.iterations.empty());
}

TEST(Critpath, RunResultExportsBlameShares) {
  // Surface #2: the same analysis lands in RunResult (and the registry)
  // when a tracer is attached.
  const ClusterConfig cfg = base_config(SyncMethod::kP3);
  Cluster cluster(small_workload(), cfg);
  obs::Tracer tracer;
  cluster.attach_tracer(&tracer);
  const RunResult run = cluster.run(1, 3);
  const obs::BlameReport blame = obs::analyze_critical_path(tracer, 1);
  ASSERT_FALSE(blame.iterations.empty());
  EXPECT_EQ(run.blame.iterations.size(), blame.iterations.size());
  EXPECT_DOUBLE_EQ(run.blame.network_share(), blame.network_share());
  EXPECT_DOUBLE_EQ(run.blame.share(obs::Blame::kBackward),
                   blame.share(obs::Blame::kBackward));
  const obs::Gauge* g = cluster.metrics().find_gauge("blame.network_share");
  ASSERT_NE(g, nullptr);
  EXPECT_DOUBLE_EQ(g->value(), blame.network_share());
}

TEST(Critpath, UntracedRunExportsNothing) {
  const ClusterConfig cfg = base_config(SyncMethod::kP3);
  Cluster cluster(small_workload(), cfg);
  const RunResult run = cluster.run(1, 3);
  EXPECT_TRUE(run.blame.iterations.empty());
  EXPECT_EQ(cluster.metrics().find_gauge("blame.network_share"), nullptr);
}

}  // namespace
}  // namespace p3::ps
