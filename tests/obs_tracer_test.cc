#include "obs/tracer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/log.h"
#include "common/rng.h"
#include "obs/analysis.h"

namespace p3::obs {
namespace {

struct TempFile {
  explicit TempFile(const char* name)
      : path(::testing::TempDir() + "/" + name) {}
  ~TempFile() { std::remove(path.c_str()); }
  std::string path;
};

TEST(Stage, NameRoundTrip) {
  for (int i = 0; i < kNumStages; ++i) {
    const Stage s = static_cast<Stage>(i);
    EXPECT_EQ(parse_stage(stage_name(s)), s);
  }
  EXPECT_THROW(parse_stage("bogus"), std::invalid_argument);
}

TEST(TraceId, DistinctAcrossSliceIterationWorker) {
  std::set<std::int64_t> ids;
  for (int slice = 0; slice < 8; ++slice) {
    for (int iter = 0; iter < 8; ++iter) {
      for (int w = 0; w < 8; ++w) {
        ids.insert(make_trace_id(slice, iter, w));
      }
    }
  }
  EXPECT_EQ(ids.size(), 8u * 8u * 8u);
}

TEST(Tracer, InternsTracksAndLabels) {
  Tracer t;
  const auto a = t.track("w0.cmp");
  const auto b = t.track("n1.tx");
  EXPECT_EQ(t.track("w0.cmp"), a);
  EXPECT_NE(a, b);
  EXPECT_EQ(t.track_name(a), "w0.cmp");
  // Process = lane prefix before the first dot.
  EXPECT_EQ(t.tracks()[a].process, "w0");
  EXPECT_EQ(t.tracks()[b].process, "n1");

  const auto la = t.label("F1");
  EXPECT_EQ(t.label("F1"), la);
  EXPECT_EQ(t.label_text(la), "F1");
}

TEST(Tracer, RecordsAllEventKinds) {
  Tracer t;
  t.span("w0.cmp", 1.0, 2.0, "F1");
  t.instant("w0.cmp", 2.5, "mark");
  t.counter("w0.sendq", 3.0, 4.0);
  t.flow_start("n0.tx", 3.5, 7, "push");
  t.flow_end("n1.rx", 4.0, 7, "push");
  ASSERT_EQ(t.events().size(), 5u);
  EXPECT_EQ(t.events()[0].kind, EventKind::kSpan);
  EXPECT_DOUBLE_EQ(t.events()[0].t1(), 2.0);
  EXPECT_EQ(t.events()[1].kind, EventKind::kInstant);
  EXPECT_EQ(t.events()[2].kind, EventKind::kCounter);
  EXPECT_DOUBLE_EQ(t.events()[2].value(), 4.0);
  EXPECT_EQ(t.events()[3].kind, EventKind::kFlowStart);
  EXPECT_EQ(t.events()[3].flow(), 7);
  EXPECT_EQ(t.events()[4].kind, EventKind::kFlowEnd);
  EXPECT_TRUE(t.validate().empty());
}

TEST(Tracer, DisabledRecordsNothing) {
  Tracer t;
  t.set_enabled(false);
  t.span("w0.cmp", 0.0, 1.0, "F1");
  t.instant("w0.cmp", 0.5, "mark");
  t.counter("w0.sendq", 0.5, 1.0);
  t.flow_start("n0.tx", 0.5, 1, "x");
  t.lifecycle(Stage::kSend, 0, 0, 0, 0, 0, 0, 0.5);
  EXPECT_TRUE(t.empty());
}

TEST(Tracer, ValidateCatchesNegativeSpan) {
  Tracer t;
  t.span("w0.cmp", 2.0, 1.0, "bad");
  const auto v = t.validate();
  ASSERT_EQ(v.size(), 1u);
  EXPECT_NE(v[0].find("negative-duration"), std::string::npos);
}

TEST(Tracer, ValidateCatchesDanglingFlowEnd) {
  Tracer t;
  t.flow_end("n1.rx", 1.0, 42, "orphan");
  const auto v = t.validate();
  ASSERT_EQ(v.size(), 1u);
  EXPECT_NE(v[0].find("without a start"), std::string::npos);
}

TEST(Tracer, ValidateAllowsUnmatchedFlowStart) {
  // Messages still in flight when the run stopped are legitimate.
  Tracer t;
  t.flow_start("n0.tx", 1.0, 42, "in-flight");
  EXPECT_TRUE(t.validate().empty());
}

TEST(Tracer, ValidateAccountingCountsInFlightFlows) {
  // validate() stays silent about unmatched starts; the accounting mode
  // reports how many causal edges a truncated trace is missing.
  Tracer t;
  t.flow_start("n0.tx", 1.0, 1, "push");
  t.flow_end("n1.rx", 2.0, 1, "push");
  t.flow_start("n0.tx", 3.0, 2, "in-flight");
  t.flow_start("n2.tx", 4.0, 3, "in-flight");
  const Tracer::ValidationStats stats = t.validate_accounting();
  EXPECT_TRUE(stats.violations.empty());
  EXPECT_EQ(stats.flows_started, 3);
  EXPECT_EQ(stats.flows_ended, 1);
  EXPECT_EQ(stats.flows_in_flight, 2);
}

TEST(Tracer, ValidateAccountingMatchesValidateViolations) {
  Tracer t;
  t.flow_end("n1.rx", 1.0, 7, "orphan");
  const Tracer::ValidationStats stats = t.validate_accounting();
  EXPECT_EQ(stats.violations, t.validate());
  EXPECT_EQ(stats.flows_started, 0);
  EXPECT_EQ(stats.flows_ended, 1);
  EXPECT_EQ(stats.flows_in_flight, 0);
}

TEST(Tracer, ValidateCatchesBackwardsFlow) {
  Tracer t;
  t.flow_start("n0.tx", 2.0, 5, "push");
  t.flow_end("n1.rx", 1.0, 5, "push");
  const auto v = t.validate();
  ASSERT_EQ(v.size(), 1u);
  EXPECT_NE(v[0].find("ends before it starts"), std::string::npos);
}

TEST(Tracer, ChromeJsonStructure) {
  Tracer t;
  t.span("w0.cmp", 0.001, 0.002, "F\"1\"");  // quote needs escaping
  t.counter("w0.sendq", 0.001, 3.0);
  t.flow_start("n0.tx", 0.001, 9, "push");
  t.flow_end("n1.rx", 0.002, 9, "push");

  std::ostringstream out;
  t.write_chrome_json(out);
  const std::string json = out.str();

  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);  // complete span
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);  // counter
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);  // flow start
  EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);  // flow end
  EXPECT_NE(json.find("\"name\":\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("F\\\"1\\\""), std::string::npos);  // escaped label
  // 1 ms span -> ts 1000.000 us, dur 1000.000 us.
  EXPECT_NE(json.find("\"ts\":1000.000"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":1000.000"), std::string::npos);
  // Balanced braces => structurally plausible JSON (CI additionally parses
  // the exported file with a real JSON parser).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

TEST(Tracer, LifecycleCsvRoundTrip) {
  Tracer t;
  t.lifecycle(Stage::kGradReady, 1, 2, 3, 4, 5, 0, 0.125);
  t.lifecycle(Stage::kParamReady, 1, 2, 3, 4, 5, 4096, 0.250);

  TempFile f("obs_tracer_test_lifecycle.csv");
  t.write_lifecycle_csv(f.path);
  const auto records = load_lifecycle_csv(f.path);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].stage, Stage::kGradReady);
  EXPECT_EQ(records[0].worker, 1);
  EXPECT_EQ(records[0].slice, 2);
  EXPECT_EQ(records[0].layer, 3);
  EXPECT_EQ(records[0].iteration, 4);
  EXPECT_EQ(records[0].priority, 5);
  EXPECT_DOUBLE_EQ(records[0].t, 0.125);
  EXPECT_EQ(records[1].stage, Stage::kParamReady);
  EXPECT_EQ(records[1].bytes, 4096);
}

TEST(Tracer, LifecycleKeepsEveryFieldAtItsLimits) {
  Tracer t;
  t.lifecycle(Stage::kSend, 32767, 2147483647, 32767, 2147483647, 32767,
              std::int64_t{1} << 40, 1.5);
  t.lifecycle(Stage::kSend, -32768, -2147483647 - 1, -32768,
              -2147483647 - 1, -32768, 0, 2.5);
  ASSERT_EQ(t.lifecycle_records().size(), 2u);
  const LifecycleRecord& hi = t.lifecycle_records()[0];
  EXPECT_EQ(hi.worker, 32767);
  EXPECT_EQ(hi.slice, 2147483647);
  EXPECT_EQ(hi.layer, 32767);
  EXPECT_EQ(hi.iteration, 2147483647);
  EXPECT_EQ(hi.priority, 32767);
  EXPECT_EQ(hi.bytes, std::int64_t{1} << 40);
  const LifecycleRecord& lo = t.lifecycle_records()[1];
  EXPECT_EQ(lo.worker, -32768);
  EXPECT_EQ(lo.slice, -2147483647 - 1);
  EXPECT_EQ(lo.iteration, -2147483647 - 1);
}

TEST(Tracer, LifecycleRejectsValuesOutsideTheirFields) {
  Tracer t;
  EXPECT_THROW(t.lifecycle(Stage::kSend, 32768, 0, 0, 0, 0, 0, 0.0),
               std::out_of_range);
  EXPECT_THROW(t.lifecycle(Stage::kSend, 0, std::int64_t{1} << 32, 0, 0, 0, 0,
                           0.0),
               std::out_of_range);
  EXPECT_THROW(t.lifecycle(Stage::kSend, 0, 0, -32769, 0, 0, 0, 0.0),
               std::out_of_range);
  EXPECT_THROW(t.lifecycle(Stage::kSend, 0, 0, 0, std::int64_t{1} << 31, 0, 0,
                           0.0),
               std::out_of_range);
  EXPECT_THROW(t.lifecycle(Stage::kSend, 0, 0, 0, 0, 40000, 0, 0.0),
               std::out_of_range);
  // Nothing is recorded by a rejected call.
  EXPECT_TRUE(t.lifecycle_records().empty());
  try {
    t.lifecycle(Stage::kSend, 0, 4294967297, 0, 0, 0, 0, 0.0);
    ADD_FAILURE() << "slice 4294967297 was accepted";
  } catch (const std::out_of_range& e) {
    EXPECT_NE(std::string(e.what()).find("slice 4294967297"),
              std::string::npos)
        << e.what();
  }
}

TEST(Tracer, ClearEmptiesEverything) {
  Tracer t;
  t.span("w0.cmp", 0.0, 1.0, "F1");
  t.lifecycle(Stage::kSend, 0, 0, 0, 0, 0, 0, 0.5);
  EXPECT_FALSE(t.empty());
  t.clear();
  EXPECT_TRUE(t.empty());
  EXPECT_TRUE(t.tracks().empty());
}

// -- The chunked log and its per-track lists ---------------------------------

/// What one scripted record must read back as.
struct Expected {
  EventKind kind = EventKind::kSpan;
  std::uint32_t track = 0;
  std::uint32_t label = 0;
  TimeS t0 = 0.0;
  TimeS t1 = 0.0;
  double value = 0.0;
  std::int64_t flow = -1;
};

/// Records a seeded mix of all five kinds on eight tracks, filling more than
/// three chunks of the log. Now and then a span or a flow end starts before
/// the previous one on its track, and a flow start reuses an older id.
std::vector<Expected> record_script(Tracer& t, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Expected> out;
  const std::size_t n = 3 * EventLog::kChunkRecords + 1'234;
  TimeS now = 0.0;
  std::int64_t next_flow = 0;
  for (std::size_t i = 0; i < n; ++i) {
    now += rng.uniform(0.0, 1e-4);
    const std::string lane = "n" + std::to_string(rng.uniform_index(4)) +
                             (rng.uniform_index(2) == 0 ? ".tx" : ".rx");
    const std::string text = "g" + std::to_string(rng.uniform_index(5));
    const TimeS t0 = rng.uniform_index(97) == 0 ? now - 0.01 : now;
    Expected e;
    e.kind = static_cast<EventKind>(rng.uniform_index(5));
    e.track = t.track(lane);
    e.label = t.label(text);
    e.t0 = t0;
    e.t1 = t0;
    switch (e.kind) {
      case EventKind::kSpan:
        e.t1 = t0 + rng.uniform(0.0, 1e-3);
        t.span(e.track, e.t0, e.t1, e.label);
        break;
      case EventKind::kInstant:
        t.instant(lane, e.t0, text);
        break;
      case EventKind::kCounter:
        e.label = 0;
        e.value = rng.uniform(-5.0, 5.0);
        t.counter(e.track, e.t0, e.value);
        break;
      case EventKind::kFlowStart:
        e.flow = rng.uniform_index(53) == 0 && next_flow > 10 ? next_flow - 10
                                                             : next_flow++;
        t.flow_start(e.track, e.t0, e.flow, e.label);
        break;
      case EventKind::kFlowEnd:
        e.flow = static_cast<std::int64_t>(
            rng.uniform_index(static_cast<std::uint64_t>(next_flow) + 1));
        t.flow_end(e.track, e.t0, e.flow, e.label);
        break;
    }
    out.push_back(e);
  }
  return out;
}

void expect_record(const Event& got, const Expected& want) {
  EXPECT_EQ(got.kind, want.kind);
  EXPECT_EQ(got.track, want.track);
  EXPECT_EQ(got.label, want.label);
  EXPECT_EQ(got.t0, want.t0);
  EXPECT_EQ(got.t1(), want.t1);
  EXPECT_EQ(got.value(), want.value);
  EXPECT_EQ(got.flow(), want.flow);
}

/// Ids of the records of `kind` on `track`, in record order, by scanning
/// the whole log.
std::vector<std::uint32_t> scan(const Tracer& t, EventKind kind,
                                std::uint32_t track) {
  std::vector<std::uint32_t> ids;
  for (std::uint32_t i = 0; i < t.events().size(); ++i) {
    if (t.events()[i].kind == kind && t.events()[i].track == track) {
      ids.push_back(i);
    }
  }
  return ids;
}

std::vector<std::uint32_t> stable_by_start(const Tracer& t,
                                           std::vector<std::uint32_t> ids) {
  std::stable_sort(ids.begin(), ids.end(),
                   [&t](std::uint32_t a, std::uint32_t b) {
                     return t.events()[a].t0 < t.events()[b].t0;
                   });
  return ids;
}

TEST(TracerLog, RecordSizeIsCompact) {
  EXPECT_EQ(sizeof(Event), 24u);
  EXPECT_EQ(sizeof(LifecycleRecord), 32u);
  EXPECT_EQ(EventLog::kChunkRecords * sizeof(Event), 768u * 1024u);
}

TEST(TracerLog, KindKeepsItsBitsBesideTheLargestLabelId) {
  Tracer t;
  t.flow_end(t.track("n0.tx"), 1.0, 7, t.label("a"));
  Event e = t.events()[0];
  e.label = kMaxInternedIds - 1;
  EXPECT_EQ(e.label, kMaxInternedIds - 1);
  EXPECT_EQ(e.kind, EventKind::kFlowEnd);
  EXPECT_EQ(e.flow(), 7);
}

TEST(TracerLog, ReadsBackInRecordOrderAcrossChunks) {
  Tracer t;
  t.span("n0.tx", 0.0, 1.0, "first");
  const Event* first = &t.events()[0];
  const std::vector<Expected> rest = record_script(t, 42);
  ASSERT_GT(t.events().size(), 3 * EventLog::kChunkRecords);
  ASSERT_EQ(t.events().size(), rest.size() + 1);
  // Growing the log never moved the first chunk.
  EXPECT_EQ(&t.events()[0], first);
  std::size_t i = 0;
  for (const Event& e : t.events()) {
    EXPECT_EQ(&e, &t.events()[i]);
    if (i > 0) expect_record(e, rest[i - 1]);
    ++i;
  }
  EXPECT_EQ(i, t.events().size());
}

TEST(TracerLog, AccessorsReturnNeutralValuesForOtherKinds) {
  Tracer t;
  record_script(t, 913);
  std::set<EventKind> kinds;
  for (const Event& e : t.events()) {
    kinds.insert(e.kind);
    if (e.kind != EventKind::kSpan) {
      EXPECT_EQ(e.t1(), e.t0);
    }
    if (e.kind != EventKind::kCounter) {
      EXPECT_EQ(e.value(), 0.0);
    }
    if (e.kind != EventKind::kFlowStart && e.kind != EventKind::kFlowEnd) {
      EXPECT_EQ(e.flow(), -1);
    }
  }
  EXPECT_EQ(kinds.size(), 5u);
}

TEST(TracerLog, TrackListsMatchAFilteredScan) {
  Tracer t;
  record_script(t, 8363);
  int spans_out_of_order = 0;
  int ends_out_of_order = 0;
  for (std::uint32_t k = 0; k < t.tracks().size(); ++k) {
    const std::vector<std::uint32_t> spans = scan(t, EventKind::kSpan, k);
    const std::vector<std::uint32_t> ends = scan(t, EventKind::kFlowEnd, k);
    EXPECT_EQ(t.spans_on(k).ids, spans);
    EXPECT_EQ(t.flow_ends_on(k).ids, ends);
    const std::vector<std::uint32_t> spans_sorted = stable_by_start(t, spans);
    const std::vector<std::uint32_t> ends_sorted = stable_by_start(t, ends);
    EXPECT_EQ(t.spans_on(k).in_order, spans_sorted == spans);
    EXPECT_EQ(t.flow_ends_on(k).in_order, ends_sorted == ends);
    EXPECT_EQ(t.by_start(t.spans_on(k)), spans_sorted);
    EXPECT_EQ(t.by_start(t.flow_ends_on(k)), ends_sorted);
    spans_out_of_order += t.spans_on(k).in_order ? 0 : 1;
    ends_out_of_order += t.flow_ends_on(k).in_order ? 0 : 1;
  }
  // The script must exercise the sorting it checks.
  EXPECT_GT(spans_out_of_order, 0);
  EXPECT_GT(ends_out_of_order, 0);

  std::vector<std::uint32_t> starts;
  for (std::uint32_t i = 0; i < t.events().size(); ++i) {
    if (t.events()[i].kind == EventKind::kFlowStart) starts.push_back(i);
  }
  EXPECT_EQ(t.flow_starts().ids, starts);
  const bool ids_ascending = std::is_sorted(
      starts.begin(), starts.end(), [&t](std::uint32_t a, std::uint32_t b) {
        return t.events()[a].flow() < t.events()[b].flow();
      });
  EXPECT_FALSE(ids_ascending);
  EXPECT_EQ(t.flow_starts().in_order, ids_ascending);
}

TEST(TracerLog, ClearedTracerMatchesFresh) {
  Tracer reused;
  record_script(reused, 7);
  reused.clear();
  EXPECT_TRUE(reused.empty());
  EXPECT_TRUE(reused.events().empty());
  EXPECT_TRUE(reused.flow_starts().ids.empty());
  EXPECT_TRUE(reused.flow_starts().in_order);
  const std::vector<Expected> want = record_script(reused, 42);
  Tracer fresh;
  record_script(fresh, 42);

  ASSERT_EQ(reused.events().size(), fresh.events().size());
  for (std::uint32_t i = 0; i < fresh.events().size(); ++i) {
    expect_record(reused.events()[i], want[i]);
    expect_record(fresh.events()[i], want[i]);
  }
  EXPECT_EQ(reused.labels(), fresh.labels());
  ASSERT_EQ(reused.tracks().size(), fresh.tracks().size());
  for (std::uint32_t k = 0; k < fresh.tracks().size(); ++k) {
    EXPECT_EQ(reused.track_name(k), fresh.track_name(k));
    EXPECT_EQ(reused.spans_on(k).ids, fresh.spans_on(k).ids);
    EXPECT_EQ(reused.spans_on(k).in_order, fresh.spans_on(k).in_order);
    EXPECT_EQ(reused.flow_ends_on(k).ids, fresh.flow_ends_on(k).ids);
    EXPECT_EQ(reused.flow_ends_on(k).in_order,
              fresh.flow_ends_on(k).in_order);
  }
  EXPECT_EQ(reused.flow_starts().ids, fresh.flow_starts().ids);
  EXPECT_EQ(reused.flow_starts().in_order, fresh.flow_starts().in_order);
}

TEST(LogCapture, MirrorsLogLinesAsInstants) {
  Tracer t;
  {
    LogCapture capture(t, [] { return TimeS{1.5}; });
    P3_INFO << "hello " << 42;
  }
  ASSERT_EQ(t.events().size(), 1u);
  const Event& e = t.events()[0];
  EXPECT_EQ(e.kind, EventKind::kInstant);
  EXPECT_EQ(t.track_name(e.track), "log");
  EXPECT_DOUBLE_EQ(e.t0, 1.5);
  EXPECT_EQ(t.label_text(e.label), "[INFO] hello 42");
  // Capture destroyed: lines no longer reach the tracer.
  P3_INFO << "after";
  EXPECT_EQ(t.events().size(), 1u);
}

TEST(LogCapture, RestoresPreviousHookOnDestruction) {
  int outer_lines = 0;
  LogHook original = set_thread_log_hook(
      [&outer_lines](LogLevel, const std::string&) { ++outer_lines; });
  {
    Tracer t;
    LogCapture capture(t, [] { return TimeS{0.0}; });
    P3_INFO << "inner";  // goes to the tracer, not the outer hook
    EXPECT_EQ(outer_lines, 0);
    EXPECT_EQ(t.events().size(), 1u);
  }
  P3_INFO << "outer";  // outer hook restored
  EXPECT_EQ(outer_lines, 1);
  set_thread_log_hook(std::move(original));
}

}  // namespace
}  // namespace p3::obs
