// Pins what a traced run records and what the critical-path engine derives
// from it: an FNV-1a digest of every event (kind, track, label, t0, t1,
// value, flow), of the track and label tables in interning order, of every
// lifecycle record, and of every BlameReport field at full precision. The
// expected values below are the recorder's and the engine's exact output, so
// any change to id assignment, first-use order, event content or the walk
// fails here, not just changes the 4-decimal CSVs. A tracer that is cleared
// and reused must record exactly what a fresh one records, and every server
// update span starts where the push that completed its round began.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "model/zoo.h"
#include "obs/critpath.h"
#include "obs/tracer.h"
#include "ps/cluster.h"

namespace p3::obs {
namespace {

using core::SyncMethod;

class Fnv {
 public:
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ = (h_ ^ p[i]) * 0x100000001b3ULL;
    }
  }
  template <class T>
  void pod(const T& v) {
    bytes(&v, sizeof(v));
  }
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    pod(bits);
  }
  void str(const std::string& s) { bytes(s.c_str(), s.size() + 1); }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

struct Pin {
  std::size_t events = 0;
  std::size_t tracks = 0;
  std::size_t labels = 0;
  std::size_t lifecycle = 0;
  std::uint64_t events_digest = 0;
  std::uint64_t tables_digest = 0;
  std::uint64_t lifecycle_digest = 0;
  std::uint64_t blame_digest = 0;
};

std::uint64_t blame_digest(const BlameReport& r) {
  Fnv h;
  h.pod(r.iterations.size());
  for (const IterationBlame& ib : r.iterations) {
    h.pod(ib.iteration);
    h.f64(ib.window_start);
    h.f64(ib.window_end);
    h.pod(ib.binding_worker);
    for (double s : ib.seconds) h.f64(s);
  }
  for (double s : r.totals) h.f64(s);
  h.f64(r.total_s);
  h.pod(r.problems.size());
  for (const std::string& p : r.problems) h.str(p);
  h.pod(r.chain_stalls);
  h.pod(r.events_processed);
  return h.value();
}

Pin pin_of(const Tracer& t, const BlameReport& blame) {
  Pin pin;
  pin.events = t.events().size();
  pin.tracks = t.tracks().size();
  pin.labels = t.labels().size();
  pin.lifecycle = t.lifecycle_records().size();
  Fnv ev;
  for (const Event& e : t.events()) {
    // Each field is hashed at the width it was pinned at: kind 8-bit, ids
    // 32-bit.
    ev.pod(static_cast<std::uint8_t>(e.kind));
    ev.pod(std::uint32_t{e.track});
    ev.pod(std::uint32_t{e.label});
    ev.f64(e.t0);
    ev.f64(e.t1());
    ev.f64(e.value());
    ev.pod(e.flow());
  }
  pin.events_digest = ev.value();
  Fnv tables;
  for (const Track& track : t.tracks()) {
    tables.str(track.name);
    tables.str(track.process);
  }
  for (const std::string& label : t.labels()) tables.str(label);
  pin.tables_digest = tables.value();
  Fnv lc;
  for (const LifecycleRecord& r : t.lifecycle_records()) {
    // Pinned when worker was an int, layer and priority 32-bit and
    // iteration 64-bit: hash each field at that width.
    lc.pod(static_cast<std::uint8_t>(r.stage));
    lc.pod(int{r.worker});
    lc.pod(std::int32_t{r.slice});
    lc.pod(std::int32_t{r.layer});
    lc.pod(std::int64_t{r.iteration});
    lc.pod(std::int32_t{r.priority});
    lc.pod(std::int64_t{r.bytes});
    lc.f64(r.t);
  }
  pin.lifecycle_digest = lc.value();
  pin.blame_digest = blame_digest(blame);
  return pin;
}

std::string describe(const Pin& p) {
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "{%zu, %zu, %zu, %zu, 0x%016llxULL, 0x%016llxULL, "
                "0x%016llxULL, 0x%016llxULL}",
                p.events, p.tracks, p.labels, p.lifecycle,
                static_cast<unsigned long long>(p.events_digest),
                static_cast<unsigned long long>(p.tables_digest),
                static_cast<unsigned long long>(p.lifecycle_digest),
                static_cast<unsigned long long>(p.blame_digest));
  return buf;
}

void expect_pin(const Pin& got, const Pin& want) {
  SCOPED_TRACE("recorded " + describe(got));
  EXPECT_EQ(got.events, want.events);
  EXPECT_EQ(got.tracks, want.tracks);
  EXPECT_EQ(got.labels, want.labels);
  EXPECT_EQ(got.lifecycle, want.lifecycle);
  EXPECT_EQ(got.events_digest, want.events_digest);
  EXPECT_EQ(got.tables_digest, want.tables_digest);
  EXPECT_EQ(got.lifecycle_digest, want.lifecycle_digest);
  EXPECT_EQ(got.blame_digest, want.blame_digest);
}

struct Case {
  ps::ClusterConfig cfg;
  int layers = 6;
  int warmup = 1;
  int measured = 3;
};

model::Workload workload(int layers = 6) {
  model::Workload w;
  w.model = model::toy_uniform(layers, 150'000);
  w.batch_per_worker = 4;
  w.iter_compute_time = 0.020;
  return w;
}

Case flat(SyncMethod method) {
  Case c;
  c.cfg.n_workers = 4;
  c.cfg.method = method;
  c.cfg.bandwidth = gbps(2.0);
  c.cfg.latency = us(25);
  c.cfg.slice_params = 50'000;
  c.cfg.max_sim_time = 60.0;
  return c;
}

/// The rack_chaos benchmark in small: two racks of four behind a 4:1 ToR,
/// rack aggregation, R = 2 leased replicas, wire loss and a minority cut of
/// rack 0's last node that heals before the lease runs out.
Case rack_chaos() {
  Case c = flat(SyncMethod::kP3);
  c.cfg.n_workers = 8;
  c.cfg.bandwidth = gbps(10.0);
  c.cfg.rx_bandwidth = gbps(100.0);
  net::Topology topo;
  topo.racks = {{0, 1, 2, 3}, {4, 5, 6, 7}};
  topo.oversubscription = 4.0;
  c.cfg.topology = topo;
  c.cfg.rack_aggregation = true;
  c.cfg.replication = 2;
  c.cfg.checkpoint_period = 0.05;
  c.cfg.seed = 7;
  c.cfg.faults.seed = 7;
  c.cfg.faults.lease_duration = 0.4;
  c.cfg.faults.drop_prob = 0.002;
  net::NetPartition cut;
  cut.side_a = {3};
  cut.side_b = {0, 1, 2, 4, 5, 6, 7};
  cut.start = 0.03;
  cut.heal = 0.09;
  c.cfg.faults.partitions.push_back(cut);
  c.measured = 4;
  return c;
}

/// rack_chaos() on twelve layers with the cut at 0.05 s: its trace fills
/// more than one chunk of the tracer's log, and a drop lane records a span
/// out of start order (a drop on the receive side logged after a later send
/// drop at the same node), so the critical-path engine sorts one list.
Case rack_chaos_across_chunks() {
  Case c = rack_chaos();
  c.layers = 12;
  c.cfg.faults.partitions[0].start = 0.05;
  c.cfg.faults.partitions[0].heal = 0.11;
  return c;
}

/// Runs `c` into `tracer`, checks the run's own blame against a standalone
/// analysis, and returns the pin.
Pin record(const Case& c, Tracer& tracer) {
  ps::Cluster cluster(workload(c.layers), c.cfg);
  cluster.attach_tracer(&tracer);
  const ps::RunResult r = cluster.run(c.warmup, c.measured);
  const BlameReport blame = analyze_critical_path(tracer, c.warmup);
  EXPECT_TRUE(blame.problems.empty());
  EXPECT_EQ(blame.iterations.size(), static_cast<std::size_t>(c.measured));
  EXPECT_EQ(blame_digest(r.blame), blame_digest(blame));
  return pin_of(tracer, blame);
}

Pin record(const Case& c) {
  Tracer tracer;
  return record(c, tracer);
}

// Counts of events, tracks, labels and lifecycle records, then the digests
// of the events, the track and label tables, the lifecycle records and the
// blame report.
constexpr Pin kFlatBaseline = {1784,
                               22,
                               48,
                               693,
                               0x6f20230078a24c34ULL,
                               0x9ba3d073337f332bULL,
                               0xa2538b3e9a0fcf46ULL,
                               0xd23138b67a025c17ULL};
constexpr Pin kFlatP3 = {3094,
                         24,
                         36,
                         1607,
                         0x4674ea98a96139eeULL,
                         0x17f754c8b79c00ebULL,
                         0x3ed004e6e04cd36eULL,
                         0x5637af71a00a5f87ULL};
constexpr Pin kRackChaos = {27504,
                            89,
                            98,
                            3700,
                            0xa4710750fd6b528dULL,
                            0xe78f4b3031f444d5ULL,
                            0x2bfb41e251ec6cbbULL,
                            0x779a97927dd7bfa8ULL};
constexpr Pin kRackChaosAcrossChunks = {40865,
                                        91,
                                        185,
                                        7095,
                                        0xe2e0102e8ad8ab22ULL,
                                        0xf3a54cefd39605f1ULL,
                                        0x8d3a53e750b44c0fULL,
                                        0x14b036be9d66a1c4ULL};

TEST(TracePin, FlatBaseline) {
  expect_pin(record(flat(SyncMethod::kBaseline)), kFlatBaseline);
}

TEST(TracePin, FlatP3) { expect_pin(record(flat(SyncMethod::kP3)), kFlatP3); }

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool has_track(const Tracer& t, const std::string& suffix) {
  for (const Track& track : t.tracks()) {
    if (ends_with(track.name, suffix)) return true;
  }
  return false;
}

/// Runs `c` to quiescence and checks that every update ("U") span on a
/// server lane starts at the kServerRecv time of the last push credited to
/// its round: the push whose aggregation completed the round. Fault-free,
/// so each slice's home server leads it and every push is credited.
void expect_update_spans_from_last_push(const Case& c) {
  Tracer tracer;
  ps::Cluster cluster(workload(c.layers), c.cfg);
  cluster.attach_tracer(&tracer);
  cluster.run(c.warmup, c.measured);
  cluster.drain();
  using Start = std::tuple<std::string, std::string, double>;
  std::vector<Start> spans;
  for (const Event& e : tracer.events()) {
    const std::string& lane = tracer.tracks()[e.track].name;
    const std::string& label = tracer.labels()[e.label];
    if (e.kind == EventKind::kSpan && ends_with(lane, ".srv") &&
        label[0] == 'U') {
      spans.emplace_back(lane, label, e.t0);
    }
  }
  std::map<std::pair<std::int32_t, std::int64_t>, double> last_push;
  for (const LifecycleRecord& r : tracer.lifecycle_records()) {
    if (r.stage != Stage::kServerRecv) continue;
    const auto [it, fresh] = last_push.try_emplace({r.slice, r.iteration}, r.t);
    if (!fresh) it->second = std::max(it->second, r.t);
  }
  std::vector<Start> rounds;
  for (const auto& [round, t] : last_push) {
    const auto& sl =
        cluster.partition().slices[static_cast<std::size_t>(round.first)];
    rounds.emplace_back("n" + std::to_string(sl.server) + ".srv",
                        "U" + std::to_string(sl.layer + 1), t);
  }
  std::sort(spans.begin(), spans.end());
  std::sort(rounds.begin(), rounds.end());
  EXPECT_FALSE(spans.empty());
  EXPECT_EQ(spans, rounds);
}

TEST(TracePin, UpdateSpanStartsAtLastCreditedPush) {
  expect_update_spans_from_last_push(flat(SyncMethod::kP3));
}

TEST(TracePin, UpdateSpanStartsAtLastCreditedPushWithReplicas) {
  Case c = flat(SyncMethod::kP3);
  c.cfg.replication = 2;  // arms the membership plane; no faults
  expect_update_spans_from_last_push(c);
}

TEST(TracePin, RackChaos) {
  Tracer tracer;
  const Pin pin = record(rack_chaos(), tracer);
  // The small chaos run must exercise what it pins: drops, retransmits,
  // switch ports and their queues, rack folds and the cut.
  for (const char* lane : {".drop", ".rtx", ".up", ".dn", ".up.q", ".agg",
                           ".srv", ".sendq", ".rxq", "net.partition"}) {
    EXPECT_TRUE(has_track(tracer, lane)) << lane;
  }
  expect_pin(pin, kRackChaos);
}

TEST(TracePin, RackChaosAcrossChunks) {
  Tracer tracer;
  const Pin pin = record(rack_chaos_across_chunks(), tracer);
  EXPECT_GT(tracer.events().size(), EventLog::kChunkRecords);
  // The tracer's per-track flags and a scan of the log agree on which span
  // lists left start order, and at least one did.
  std::vector<std::string> unordered;
  for (std::uint32_t k = 0; k < tracer.tracks().size(); ++k) {
    double last = -1e300;
    bool ordered = true;
    for (const Event& e : tracer.events()) {
      if (e.kind != EventKind::kSpan || e.track != k) continue;
      ordered = ordered && e.t0 >= last;
      last = e.t0;
    }
    EXPECT_EQ(tracer.spans_on(k).in_order, ordered) << tracer.track_name(k);
    if (!ordered) unordered.push_back(tracer.track_name(k));
  }
  ASSERT_FALSE(unordered.empty());
  for (const std::string& lane : unordered) {
    EXPECT_TRUE(ends_with(lane, ".drop")) << lane;
  }
  expect_pin(pin, kRackChaosAcrossChunks);
}

TEST(TracePin, ClearedTracerMatchesFresh) {
  // Record a run whose lanes and labels are interned in a different order,
  // clear, then record the flat runs into the same tracer: ids must restart
  // from the first use in the new run, exactly as in a fresh tracer.
  Tracer tracer;
  record(rack_chaos(), tracer);
  tracer.clear();
  EXPECT_TRUE(tracer.empty());
  EXPECT_TRUE(tracer.tracks().empty());
  EXPECT_TRUE(tracer.labels().empty());
  expect_pin(record(flat(SyncMethod::kP3), tracer), kFlatP3);
  tracer.clear();
  expect_pin(record(flat(SyncMethod::kBaseline), tracer), kFlatBaseline);
}

}  // namespace
}  // namespace p3::obs
