#include "obs/analysis.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "model/zoo.h"
#include "obs/tracer.h"
#include "ps/cluster.h"

namespace p3::obs {
namespace {

LifecycleRecord rec(Stage stage, int worker, std::int32_t slice,
                    std::int64_t iteration, int priority, TimeS t,
                    Bytes bytes = 0) {
  LifecycleRecord r;
  r.stage = stage;
  r.worker = static_cast<std::int16_t>(worker);
  r.slice = slice;
  r.iteration = static_cast<std::int32_t>(iteration);
  r.priority = static_cast<std::int16_t>(priority);
  r.bytes = bytes;
  r.t = t;
  return r;
}

TEST(Analyze, SingleRoundTripBreakdown) {
  const std::vector<LifecycleRecord> records = {
      rec(Stage::kGradReady, 0, 0, 0, 0, 0.00),
      rec(Stage::kEnqueue, 0, 0, 0, 0, 0.01),
      rec(Stage::kSend, 0, 0, 0, 0, 0.03),
      rec(Stage::kServerRecv, 0, 0, 0, 0, 0.05),
      rec(Stage::kAggregate, 0, 0, 0, 0, 0.06),
      rec(Stage::kParamReady, 0, 0, 0, 0, 0.10),
  };
  const Report report = analyze(records);
  EXPECT_EQ(report.records, 6);
  EXPECT_EQ(report.round_trips, 1);
  ASSERT_EQ(report.per_priority.size(), 1u);
  const StageBreakdown& b = report.per_priority[0];
  EXPECT_EQ(b.priority, 0);
  EXPECT_EQ(b.round_trips, 1);
  EXPECT_NEAR(b.mean_queue_s, 0.02, 1e-12);   // enqueue -> send
  EXPECT_NEAR(b.mean_wire_s, 0.02, 1e-12);    // send -> server recv
  EXPECT_NEAR(b.mean_server_s, 0.01, 1e-12);  // recv -> last aggregate
  EXPECT_NEAR(b.mean_return_s, 0.04, 1e-12);  // aggregate -> param ready
  EXPECT_NEAR(b.mean_total_s, 0.10, 1e-12);   // grad ready -> param ready
}

TEST(Analyze, IncompleteRoundTripNotCounted) {
  const std::vector<LifecycleRecord> records = {
      rec(Stage::kGradReady, 0, 0, 0, 0, 0.0),
      rec(Stage::kEnqueue, 0, 0, 0, 0, 0.01),
      rec(Stage::kSend, 0, 0, 0, 0, 0.02),
      // never reaches param-ready
  };
  const Report report = analyze(records);
  EXPECT_EQ(report.round_trips, 0);
  EXPECT_TRUE(report.per_priority.empty());
}

TEST(Analyze, GroupsByPriorityClass) {
  std::vector<LifecycleRecord> records;
  // Two round trips at priority 0 and one at priority 3.
  for (int i = 0; i < 2; ++i) {
    records.push_back(rec(Stage::kGradReady, 0, i, 0, 0, 0.0));
    records.push_back(rec(Stage::kParamReady, 0, i, 0, 0, 0.1));
  }
  records.push_back(rec(Stage::kGradReady, 0, 9, 0, 3, 0.0));
  records.push_back(rec(Stage::kParamReady, 0, 9, 0, 3, 0.4));

  const Report report = analyze(records);
  EXPECT_EQ(report.round_trips, 3);
  ASSERT_EQ(report.per_priority.size(), 2u);
  EXPECT_EQ(report.per_priority[0].priority, 0);
  EXPECT_EQ(report.per_priority[0].round_trips, 2);
  EXPECT_NEAR(report.per_priority[0].mean_total_s, 0.1, 1e-12);
  EXPECT_EQ(report.per_priority[1].priority, 3);
  EXPECT_EQ(report.per_priority[1].round_trips, 1);
  EXPECT_NEAR(report.per_priority[1].mean_total_s, 0.4, 1e-12);
}

TEST(Analyze, DetectsPriorityInversion) {
  const std::vector<LifecycleRecord> records = {
      rec(Stage::kEnqueue, 0, 1, 0, 5, 0.00),         // bulk fragment
      rec(Stage::kEnqueue, 0, 0, 0, 1, 0.01),         // urgent fragment
      rec(Stage::kSend, 0, 1, 0, 5, 0.02, 1000),      // bulk while urgent waits
      rec(Stage::kSend, 0, 0, 0, 1, 0.03, 500),       // urgent drains: fine
  };
  const Report report = analyze(records);
  EXPECT_EQ(report.inversion.events, 1);
  EXPECT_EQ(report.inversion.bytes, 1000);
}

TEST(Analyze, NoInversionAcrossWorkers) {
  // An urgent fragment on worker 1 does not indict worker 0's send.
  const std::vector<LifecycleRecord> records = {
      rec(Stage::kEnqueue, 1, 0, 0, 1, 0.00),
      rec(Stage::kEnqueue, 0, 1, 0, 5, 0.01),
      rec(Stage::kSend, 0, 1, 0, 5, 0.02, 1000),
  };
  EXPECT_EQ(analyze(records).inversion.events, 0);
}

TEST(Analyze, QueueDepthSeries) {
  const std::vector<LifecycleRecord> records = {
      rec(Stage::kEnqueue, 0, 1, 0, 5, 0.00),
      rec(Stage::kEnqueue, 0, 0, 0, 1, 0.01),
      rec(Stage::kSend, 0, 1, 0, 5, 0.02),
      rec(Stage::kSend, 0, 0, 0, 1, 0.03),
  };
  const Report report = analyze(records);
  ASSERT_EQ(report.queues.size(), 1u);
  const QueueDepthStats& q = report.queues[0];
  EXPECT_EQ(q.worker, 0);
  EXPECT_EQ(q.peak_depth, 2);
  // Depth is 1 for 10 ms, 2 for 10 ms, 1 for 10 ms over a 30 ms window.
  EXPECT_NEAR(q.mean_depth, 4.0 / 3.0, 1e-9);
  const std::vector<std::pair<TimeS, std::int64_t>> expected = {
      {0.00, 1}, {0.01, 2}, {0.02, 1}, {0.03, 0}};
  EXPECT_EQ(q.series, expected);
}

TEST(Violations, CleanChainPasses) {
  const std::vector<LifecycleRecord> records = {
      rec(Stage::kGradReady, 0, 0, 0, 0, 0.00),
      rec(Stage::kEnqueue, 0, 0, 0, 0, 0.01),
      rec(Stage::kSend, 0, 0, 0, 0, 0.02),
      rec(Stage::kServerRecv, 0, 0, 0, 0, 0.03),
      rec(Stage::kAggregate, 0, 0, 0, 0, 0.04),
      rec(Stage::kNotify, 0, 0, 0, 0, 0.05),
      rec(Stage::kPull, 0, 0, 0, 0, 0.06),
      rec(Stage::kParamReady, 0, 0, 0, 0, 0.07),
  };
  EXPECT_TRUE(lifecycle_violations(records, /*strict=*/true).empty());
}

TEST(Violations, DetectsStageRegression) {
  const std::vector<LifecycleRecord> records = {
      rec(Stage::kEnqueue, 0, 0, 0, 0, 0.02),
      rec(Stage::kSend, 0, 0, 0, 0, 0.01),  // sent before it was enqueued
  };
  const auto v = lifecycle_violations(records);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_NE(v[0].find("send"), std::string::npos);
  EXPECT_NE(v[0].find("precedes"), std::string::npos);
}

TEST(Violations, MissingStagesAreSkippedNotFlagged) {
  // P3 broadcast: no notify, no pull — chain checks only what was seen.
  const std::vector<LifecycleRecord> records = {
      rec(Stage::kGradReady, 0, 0, 0, 0, 0.00),
      rec(Stage::kParamReady, 0, 0, 0, 0, 0.05),
  };
  EXPECT_TRUE(lifecycle_violations(records, /*strict=*/true).empty());
}

TEST(Violations, PullBeforeNotifyOnlyFlaggedWhenStrict) {
  const std::vector<LifecycleRecord> records = {
      rec(Stage::kNotify, 0, 0, 0, 0, 0.05),
      rec(Stage::kPull, 0, 0, 0, 0, 0.02),
  };
  EXPECT_TRUE(lifecycle_violations(records, /*strict=*/false).empty());
  EXPECT_EQ(lifecycle_violations(records, /*strict=*/true).size(), 1u);
}

TEST(LoadLifecycleCsv, MissingFileThrows) {
  EXPECT_THROW(load_lifecycle_csv("/nonexistent/lifecycle.csv"),
               std::runtime_error);
}

TEST(LoadLifecycleCsv, MalformedRowThrows) {
  const std::string path =
      ::testing::TempDir() + "/obs_analysis_test_malformed.csv";
  const auto expect_rejected = [&path](const std::string& row) {
    {
      std::ofstream out(path);
      out << "stage,worker,slice,layer,iteration,priority,bytes,t\n";
      out << "send,0,1,0,0,0,64,0.5\n";
      out << row << "\n";
    }
    try {
      load_lifecycle_csv(path);
      ADD_FAILURE() << "accepted row: " << row;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(path + ":3: "), std::string::npos)
          << e.what();
    }
  };
  expect_rejected("send,0,1");  // 3 fields instead of 8
  // A slice past int32 must not wrap, and a field must parse whole.
  expect_rejected("send,0,4294967297,0,0,0,64,0.5");
  expect_rejected("send,0,7x,0,0,0,64,0.5");
  // Each narrowed field rejects what its record cannot hold.
  expect_rejected("send,32768,1,0,0,0,64,0.5");
  expect_rejected("send,0,1,-32769,0,0,64,0.5");
  expect_rejected("send,0,1,0,2147483648,0,64,0.5");
  expect_rejected("send,0,1,0,0,40000,64,0.5");
  expect_rejected("send,0,1,0,0,0,64,0.5s");
  std::remove(path.c_str());
}

TEST(FormatReport, ContainsTables) {
  const std::vector<LifecycleRecord> records = {
      rec(Stage::kGradReady, 0, 0, 0, 0, 0.0),
      rec(Stage::kEnqueue, 0, 0, 0, 0, 0.01),
      rec(Stage::kSend, 0, 0, 0, 0, 0.02),
      rec(Stage::kParamReady, 0, 0, 0, 0, 0.1),
  };
  const std::string text = format_report(analyze(records));
  EXPECT_NE(text.find("lifecycle records: 4"), std::string::npos);
  EXPECT_NE(text.find("completed round trips: 1"), std::string::npos);
  EXPECT_NE(text.find("Per-priority latency breakdown"), std::string::npos);
  EXPECT_NE(text.find("Priority inversions: 0"), std::string::npos);
  EXPECT_NE(text.find("Send-queue depth"), std::string::npos);
}

TEST(Analyze, RackAggregationKeepsMemberSlicePriorities) {
  // Rack aggregation folds member pushes into one combined kRackPush per
  // rack; the per-priority breakdown must still attribute each member
  // slice's wire/queue time to that slice's own priority, not collapse the
  // whole rack onto the combined message's priority.
  model::Workload workload;
  workload.model = model::toy_uniform(4, 120'000);
  workload.batch_per_worker = 4;
  workload.iter_compute_time = 0.020;
  ps::ClusterConfig cfg;
  cfg.n_workers = 4;
  cfg.method = core::SyncMethod::kP3;
  cfg.bandwidth = gbps(2.0);
  cfg.latency = us(25);
  cfg.slice_params = 50'000;
  cfg.max_sim_time = 60.0;
  cfg.topology.racks = {{0, 1}, {2, 3}};
  cfg.topology.oversubscription = 2.0;
  cfg.rack_aggregation = true;

  ps::Cluster cluster(workload, cfg);
  Tracer tracer;
  cluster.attach_tracer(&tracer);
  cluster.run(1, 3);

  const Report report = analyze(tracer.lifecycle_records());
  EXPECT_GT(report.round_trips, 0);
  // The toy model has 4 layers, so P3 slicing yields at least 4 distinct
  // priority classes; every class must complete round trips of its own.
  std::set<std::int32_t> priorities;
  int classes_with_wire_time = 0;
  for (const StageBreakdown& b : report.per_priority) {
    EXPECT_GT(b.round_trips, 0);
    priorities.insert(b.priority);
    if (b.mean_wire_s > 0.0) ++classes_with_wire_time;
  }
  EXPECT_GE(priorities.size(), 4u);
  // Wire time spread over several classes is the proof the combined push
  // did not swallow the members' attribution.
  EXPECT_GE(classes_with_wire_time, 2);
}

}  // namespace
}  // namespace p3::obs
