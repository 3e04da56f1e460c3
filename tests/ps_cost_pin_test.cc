// Pins what the simulator does, not only what it computes: the events it
// executes, its event-heap pushes and pops, the messages it posts, delivers
// and drops, and the simulated outputs of one small point per workload shape
// the benchmark runs (a flat ResNet-50 fabric under Baseline and P3, sliced
// VGG-19 on four workers, and two racks behind an oversubscribed ToR with
// rack aggregation, replicas, wire loss and a healing cut), plus three small
// membership-plane runs that move the set of workers a server waits for (a
// crash and restart under suspicion failover, an elastic join then a planned
// leave, and DSSP with a crash). A speed-up of the event core, the network
// or the protocol must keep every value here exact; a change that adds or
// drops events, or moves them between the heap and an open same-time batch,
// fails CI even when the outputs happen to survive it.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>

#include "model/compute.h"
#include "model/zoo.h"
#include "obs/tracer.h"
#include "ps/cluster.h"

namespace p3::ps {
namespace {

using core::SyncMethod;

struct Cost {
  std::uint64_t run_events = 0;    ///< events executed by run()
  std::uint64_t total_events = 0;  ///< after drain()
  std::uint64_t run_heap_pushes = 0;  ///< event-heap pushes by run()
  std::uint64_t run_heap_pops = 0;
  std::uint64_t total_heap_pushes = 0;  ///< after drain()
  std::uint64_t total_heap_pops = 0;
  std::int64_t posted = 0;
  std::int64_t delivered = 0;
  std::int64_t dropped = 0;
  std::int64_t partition_drops = 0;
  double throughput = 0;
  double mean_iteration_time = 0;
  double total_time = 0;
  double mean_stall_time = 0;
  Bytes goodput_bytes = 0;
  Bytes wire_bytes = 0;
};

struct Case {
  model::Workload (*build)() = nullptr;
  ClusterConfig cfg;
  int warmup = 1;
  int measured = 2;
};

ClusterConfig seeded() {
  ClusterConfig cfg;
  cfg.seed = 42;
  cfg.faults.seed = 42;
  return cfg;
}

Case flat_resnet(SyncMethod method) {
  Case c;
  c.build = model::workload_resnet50;
  c.cfg = seeded();
  c.cfg.n_workers = 8;
  c.cfg.method = method;
  c.cfg.bandwidth = gbps(10);
  return c;
}

Case sliced_vgg() {
  Case c;
  c.build = model::workload_vgg19;
  c.cfg = seeded();
  c.cfg.n_workers = 4;
  c.cfg.method = SyncMethod::kP3;
  c.cfg.bandwidth = gbps(4);
  c.cfg.rx_bandwidth = gbps(100);
  return c;
}

/// Two racks of four behind a 4:1 ToR, rack aggregation, R = 2 leased
/// replicas, 0.2 % wire loss and a minority cut of rack 0's last node that
/// heals before the lease runs out.
Case rack_chaos() {
  Case c;
  c.build = model::workload_resnet50;
  c.cfg = seeded();
  c.cfg.n_workers = 8;
  c.cfg.method = SyncMethod::kP3;
  c.cfg.bandwidth = gbps(10);
  c.cfg.rx_bandwidth = gbps(100);
  net::Topology topo;
  topo.racks = {{0, 1, 2, 3}, {4, 5, 6, 7}};
  topo.oversubscription = 4.0;
  c.cfg.topology = topo;
  c.cfg.rack_aggregation = true;
  c.cfg.replication = 2;
  c.cfg.checkpoint_period = 0.5;
  c.cfg.max_sim_time = 12.0;
  c.cfg.faults.lease_duration = 0.4;
  c.cfg.faults.drop_prob = 0.002;
  net::NetPartition cut;
  cut.side_a = {3};
  cut.side_b = {0, 1, 2, 4, 5, 6, 7};
  cut.start = 0.1;
  cut.heal = 0.3;
  c.cfg.faults.partitions.push_back(cut);
  c.measured = 4;
  return c;
}

model::Workload toy() {
  model::Workload w;
  w.model = model::toy_uniform(4, 120'000);
  w.batch_per_worker = 4;
  w.iter_compute_time = 0.020;
  return w;
}

/// The membership plane in small: toy layers of three slices, 1 Gbps,
/// R = 2 replicas, 5 ms beacons and a 25 ms suspicion threshold.
Case plane(int workers, SyncMethod method) {
  Case c;
  c.build = toy;
  c.cfg = seeded();
  c.cfg.n_workers = workers;
  c.cfg.method = method;
  c.cfg.bandwidth = gbps(1);
  c.cfg.slice_params = 50'000;
  c.cfg.replication = 2;
  c.cfg.heartbeat_period = ms(5);
  c.cfg.suspicion_timeout = ms(25);
  c.cfg.max_sim_time = 60.0;
  return c;
}

/// Eight workers under suspicion failover: node 2 crashes and restarts, so
/// its groups fail over, survivors' re-pushes of committed rounds draw
/// stale-push replies, its revival widens the primaries' views again, its
/// worker rejoins under the bounded-staleness window and its server
/// rehydrates from a checkpoint plus a kSyncData delta.
Case failover_restart() {
  Case c = plane(8, SyncMethod::kP3);
  c.cfg.checkpoint_period = 0.05;
  c.cfg.faults.crashes.push_back({2, 0.06, 0.1});
  c.measured = 8;
  return c;
}

/// Node 4 joins and takes groups over kMigrate, then node 1 drains its
/// groups out and retires.
Case join_then_leave() {
  Case c = plane(4, SyncMethod::kBaseline);
  c.cfg.faults.joins.push_back({4, 0.05});
  c.cfg.faults.leaves.push_back({1, 0.3});
  c.measured = 7;
  return c;
}

/// DSSP at a fixed bound of 1 behind a slow straggler, so fast workers'
/// pushes run ahead into the future-round buffer until the gate holds them.
/// Node 3 crashes and restarts inside the suspicion window: nobody fails
/// over, so its server rehydrates from its stale checkpoint and
/// fast-forwards to the floor the workers' pushes carry.
Case dssp_crash() {
  Case c = plane(4, SyncMethod::kDSSP);
  c.cfg.staleness.fixed_s = 1;
  c.cfg.compute_jitter = 0.2;
  net::Degradation slow;
  slow.node = 2;
  slow.end = 10.0;
  slow.bandwidth_factor = 0.15;
  slow.extra_latency = us(200);
  c.cfg.faults.degradations.push_back(slow);
  c.cfg.faults.crashes.push_back({3, 0.05, 0.01});
  c.measured = 7;
  return c;
}

Cost measure(const Case& c, RunResult* result = nullptr,
             obs::Tracer* tracer = nullptr) {
  Cluster cluster(c.build(), c.cfg);
  if (tracer != nullptr) cluster.attach_tracer(tracer);
  const RunResult r = cluster.run(c.warmup, c.measured);
  if (result != nullptr) *result = r;
  EXPECT_EQ(r.iterations_measured, c.measured);
  Cost cost;
  const sim::Simulator& sim = cluster.simulator();
  cost.run_events = sim.events_executed();
  cost.run_heap_pushes = sim.heap_pushes();
  cost.run_heap_pops = sim.heap_pops();
  cluster.drain();
  const net::Network& net = cluster.network();
  cost.total_events = sim.events_executed();
  cost.total_heap_pushes = sim.heap_pushes();
  cost.total_heap_pops = sim.heap_pops();
  cost.posted = net.messages_posted();
  cost.delivered = net.messages_delivered();
  cost.dropped = net.messages_dropped();
  cost.partition_drops = r.partition_drops;
  EXPECT_EQ(cost.posted, cost.delivered + cost.dropped);
  cost.throughput = r.throughput;
  cost.mean_iteration_time = r.mean_iteration_time;
  cost.total_time = r.total_time;
  cost.mean_stall_time = r.mean_stall_time;
  cost.goodput_bytes = r.goodput_bytes;
  cost.wire_bytes = r.wire_bytes;
  return cost;
}

std::string describe(const Cost& c) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{%llu, %llu, %llu, %llu, %llu, %llu, %lld, %lld, %lld, %lld, "
                "%a, %a, %a, %a, %lld, %lld}",
                static_cast<unsigned long long>(c.run_events),
                static_cast<unsigned long long>(c.total_events),
                static_cast<unsigned long long>(c.run_heap_pushes),
                static_cast<unsigned long long>(c.run_heap_pops),
                static_cast<unsigned long long>(c.total_heap_pushes),
                static_cast<unsigned long long>(c.total_heap_pops),
                static_cast<long long>(c.posted),
                static_cast<long long>(c.delivered),
                static_cast<long long>(c.dropped),
                static_cast<long long>(c.partition_drops), c.throughput,
                c.mean_iteration_time, c.total_time, c.mean_stall_time,
                static_cast<long long>(c.goodput_bytes),
                static_cast<long long>(c.wire_bytes));
  return buf;
}

void expect_cost(const Cost& got, const Cost& want) {
  SCOPED_TRACE("measured " + describe(got));
  EXPECT_EQ(got.run_events, want.run_events);
  EXPECT_EQ(got.total_events, want.total_events);
  EXPECT_EQ(got.run_heap_pushes, want.run_heap_pushes);
  EXPECT_EQ(got.run_heap_pops, want.run_heap_pops);
  EXPECT_EQ(got.total_heap_pushes, want.total_heap_pushes);
  EXPECT_EQ(got.total_heap_pops, want.total_heap_pops);
  EXPECT_EQ(got.posted, want.posted);
  EXPECT_EQ(got.delivered, want.delivered);
  EXPECT_EQ(got.dropped, want.dropped);
  EXPECT_EQ(got.partition_drops, want.partition_drops);
  EXPECT_EQ(got.throughput, want.throughput);
  EXPECT_EQ(got.mean_iteration_time, want.mean_iteration_time);
  EXPECT_EQ(got.total_time, want.total_time);
  EXPECT_EQ(got.mean_stall_time, want.mean_stall_time);
  EXPECT_EQ(got.goodput_bytes, want.goodput_bytes);
  EXPECT_EQ(got.wire_bytes, want.wire_bytes);
}

// Events after run() and after drain(); event-heap pushes and pops after
// run() and after drain(); messages posted, delivered and dropped, and the
// drops an active cut caused; throughput, mean iteration, total and stall
// times (exact, as hex floats); goodput and wire bytes.
// Events count the retransmit timers that fire and the transport's wakeups
// that find their timer acked, never a timer discarded on its ack
// (ps/transport.h).
constexpr Cost kFlatBaseline = {57491,
                                57568,
                                35370,
                                35367,
                                35404,
                                35404,
                                16992,
                                16992,
                                0,
                                0,
                                0x1.a2df158cd5419p+7,
                                0x1.38d30ae075fbbp-2,
                                0x1.d513b800a86b6p-1,
                                0x1.12c1ef933c2ap-11,
                                4909212416,
                                4909325504};
constexpr Cost kFlatP3 = {115036,
                          115073,
                          77566,
                          77563,
                          77584,
                          77584,
                          28272,
                          28272,
                          0,
                          0,
                          0x1.a2f0eb80e9fc6p+7,
                          0x1.38bae637006f6p-2,
                          0x1.d506659573299p-1,
                          0x1.f34b85453ef4p-12,
                          4908307200,
                          4908420288};
constexpr Cost kSlicedVgg = {201778,
                             272163,
                             134915,
                             134908,
                             182085,
                             182085,
                             69192,
                             69192,
                             0,
                             0,
                             0x1.244febb79e33ap+4,
                             0x1.c04d0fbfb0d88p+0,
                             0x1.04be1ea614368p+2,
                             0x1.2e25e31c0b0a8p+0,
                             10198771200,
                             10201319744};
constexpr Cost kRackChaos = {509733,
                             526521,
                             386784,
                             386758,
                             399099,
                             399099,
                             120316,
                             119025,
                             1291,
                             1065,
                             0x1.176775f4dc157p+7,
                             0x1.c85fd15c0dc6cp-2,
                             0x1.1198a69dd3e39p+1,
                             0x1.261cf1f380d7cp-3,
                             9550110304,
                             9726671840};

constexpr Cost kFailoverRestart = {28384,
                                   29211,
                                   16053,
                                   16021,
                                   16470,
                                   16470,
                                   11839,
                                   11639,
                                   200,
                                   0,
                                   0x1.657fda23fbde9p+8,
                                   0x1.66f070fc89356p-4,
                                   0x1.732599b97d028p-1,
                                   0x1.0e8f8210f8c8dp-4,
                                   283342272,
                                   296962496};
constexpr Cost kJoinThenLeave = {7267,
                                 7431,
                                 4182,
                                 4171,
                                 4254,
                                 4254,
                                 2780,
                                 2780,
                                 0,
                                 0,
                                 0x1.6ee92f7dea9bap+7,
                                 0x1.7a40d02894609p-4,
                                 0x1.5924eb2d1b52cp-1,
                                 0x1.22aa40738f94dp-4,
                                 155138240,
                                 157673984};
constexpr Cost kDsspCrash = {14917,
                             15622,
                             8719,
                             8705,
                             9098,
                             9098,
                             5788,
                             5778,
                             10,
                             0,
                             0x1.90fc86cac8b91p+6,
                             0x1.5bfbbe24fe96ep-3,
                             0x1.3815536ef76d7p+0,
                             0x1.15f66c67c82c4p-3,
                             167334016,
                             197591808};

TEST(CostPin, FlatResNetBaseline) {
  expect_cost(measure(flat_resnet(SyncMethod::kBaseline)), kFlatBaseline);
}

TEST(CostPin, FlatResNetP3) {
  expect_cost(measure(flat_resnet(SyncMethod::kP3)), kFlatP3);
}

TEST(CostPin, SlicedVgg) { expect_cost(measure(sliced_vgg()), kSlicedVgg); }

TEST(CostPin, RackChaos) {
  const Cost cost = measure(rack_chaos());
  // The small chaos run must exercise what it pins: loss and the cut.
  EXPECT_GT(cost.dropped, cost.partition_drops);
  EXPECT_GT(cost.partition_drops, 0);
  expect_cost(cost, kRackChaos);
}

TEST(CostPin, FailoverRestart) {
  RunResult r;
  const Cost cost = measure(failover_restart(), &r);
  EXPECT_EQ(r.crashes, 1);
  EXPECT_EQ(r.restarts, 1);
  EXPECT_GT(r.failovers, 0);
  EXPECT_GT(r.stale_pushes, 0);
  EXPECT_EQ(r.worker_rejoins, 1);
  EXPECT_EQ(r.rehydrations, 1);
  EXPECT_GT(r.rehydration_bytes, 0);
  expect_cost(cost, kFailoverRestart);
}

TEST(CostPin, JoinThenLeave) {
  RunResult r;
  const Cost cost = measure(join_then_leave(), &r);
  EXPECT_EQ(r.joins, 1);
  EXPECT_GT(r.migrations, 1);
  EXPECT_EQ(r.drains_completed, 1);
  expect_cost(cost, kJoinThenLeave);
}

TEST(CostPin, DsspCrash) {
  RunResult r;
  const Cost cost = measure(dssp_crash(), &r);
  EXPECT_EQ(r.crashes, 1);
  EXPECT_EQ(r.worker_rejoins, 1);
  EXPECT_GT(r.dssp_gate_blocks, 0);
  EXPECT_EQ(r.staleness_violations, 0);
  expect_cost(cost, kDsspCrash);
}

// An attached tracer that is switched off must cost nothing but its
// `enabled()` checks: it records nothing, and the run executes and queues
// exactly the events, and posts exactly the messages, of a run with no
// tracer, with the same outputs.
void expect_disabled_tracer_inert(const Case& c) {
  obs::Tracer tracer;
  tracer.set_enabled(false);
  const Cost with = measure(c, nullptr, &tracer);
  EXPECT_TRUE(tracer.empty());
  expect_cost(with, measure(c));
}

TEST(CostPinDisabledTracer, FlatResNetBaseline) {
  expect_disabled_tracer_inert(flat_resnet(SyncMethod::kBaseline));
}

TEST(CostPinDisabledTracer, RackChaos) {
  expect_disabled_tracer_inert(rack_chaos());
}

}  // namespace
}  // namespace p3::ps
