#include "net/faults.h"

#include <gtest/gtest.h>

#include <vector>

#include "net/network.h"
#include "trace/timeline.h"

namespace p3::net {
namespace {

NetworkConfig test_config(BitsPerSec rate = gbps(1), TimeS latency = 0.0) {
  NetworkConfig cfg;
  cfg.rate = rate;
  cfg.latency = latency;
  cfg.loopback_rate = gbps(400);
  cfg.loopback_latency = 0.0;
  return cfg;
}

Message msg(int src, int dst, Bytes bytes,
            MsgKind kind = MsgKind::kPushGradient) {
  Message m;
  m.src = src;
  m.dst = dst;
  m.bytes = bytes;
  m.kind = kind;
  return m;
}

/// Deliver everything pending and count what arrived at `node`.
int drain_inbox(sim::Simulator& sim, Network& net, int node) {
  sim.run();
  int count = 0;
  while (net.inbox(node).try_pop()) ++count;
  return count;
}

TEST(FaultPlan, ActiveDetectsAnyConfiguredFault) {
  EXPECT_FALSE(FaultPlan{}.active());
  FaultPlan drop;
  drop.drop_prob = 0.01;
  EXPECT_TRUE(drop.active());
  FaultPlan flap;
  flap.flaps.push_back({0, 1, 1.0, 2.0});
  EXPECT_TRUE(flap.active());
  FaultPlan degrade;
  degrade.degradations.push_back({0, 0.0, 1.0, 0.5, 0.0});
  EXPECT_TRUE(degrade.active());
  FaultPlan pause;
  pause.pauses.push_back({0, 0.0, 1.0});
  EXPECT_TRUE(pause.active());
}

TEST(FaultInjector, InvalidPlansThrow) {
  FaultPlan bad_prob;
  bad_prob.drop_prob = 1.5;
  EXPECT_THROW(FaultInjector{bad_prob}, std::invalid_argument);
  FaultPlan bad_factor;
  bad_factor.degradations.push_back({0, 0.0, 1.0, 0.0, 0.0});
  EXPECT_THROW(FaultInjector{bad_factor}, std::invalid_argument);
  FaultPlan bad_pause;
  bad_pause.pauses.push_back({0, 0.0, -1.0});
  EXPECT_THROW(FaultInjector{bad_pause}, std::invalid_argument);
}

TEST(FaultInjector, DropSamplingIsDeterministic) {
  FaultPlan plan;
  plan.drop_prob = 0.3;
  plan.seed = 7;
  auto sample = [&plan] {
    FaultInjector inj(plan);
    std::vector<bool> out;
    Message m = msg(0, 1, 100);
    for (int i = 0; i < 200; ++i) out.push_back(inj.should_drop(m, 0.0));
    return out;
  };
  EXPECT_EQ(sample(), sample());
}

TEST(FaultInjector, DropRateMatchesProbability) {
  FaultPlan plan;
  plan.drop_prob = 0.25;
  plan.seed = 11;
  FaultInjector inj(plan);
  Message m = msg(0, 1, 100);
  const int n = 10'000;
  for (int i = 0; i < n; ++i) (void)inj.should_drop(m, 0.0);
  EXPECT_NEAR(static_cast<double>(inj.drops()) / n, 0.25, 0.02);
}

TEST(FaultInjector, PerLinkOverrideBeatsGlobalProbability) {
  FaultPlan plan;
  plan.drop_prob = 1.0;
  plan.link_drops.push_back({0, 1, 0.0});  // this link is perfect
  FaultInjector inj(plan);
  EXPECT_FALSE(inj.should_drop(msg(0, 1, 100), 0.0));
  EXPECT_TRUE(inj.should_drop(msg(1, 0, 100), 0.0));
}

TEST(FaultInjector, LoopbackIsNeverDropped) {
  FaultPlan plan;
  plan.drop_prob = 1.0;
  FaultInjector inj(plan);
  EXPECT_FALSE(inj.should_drop(msg(2, 2, 100), 0.0));
  EXPECT_EQ(inj.drops(), 0);
}

TEST(FaultInjector, BlackoutDropsOnlyDuringWindow) {
  FaultPlan plan;
  plan.flaps.push_back({0, -1, 1.0, 2.0});  // node 0 egress down [1, 2)
  FaultInjector inj(plan);
  EXPECT_FALSE(inj.should_drop(msg(0, 1, 100), 0.5));
  EXPECT_TRUE(inj.should_drop(msg(0, 1, 100), 1.0));
  EXPECT_TRUE(inj.should_drop(msg(0, 2, 100), 1.999));
  EXPECT_FALSE(inj.should_drop(msg(0, 1, 100), 2.0));
  EXPECT_FALSE(inj.should_drop(msg(1, 0, 100), 1.5));  // other direction up
}

TEST(FaultInjector, PauseReleaseChainsOverlappingWindows) {
  FaultPlan plan;
  plan.pauses.push_back({3, 1.0, 1.0});  // [1, 2)
  plan.pauses.push_back({3, 1.5, 1.0});  // [1.5, 2.5): release chains
  FaultInjector inj(plan);
  EXPECT_DOUBLE_EQ(inj.pause_release(3, 0.5), 0.5);
  EXPECT_DOUBLE_EQ(inj.pause_release(3, 1.2), 2.5);
  EXPECT_DOUBLE_EQ(inj.pause_release(2, 1.2), 1.2);  // other node untouched
}

// ---------------------------------------------------------------------------
// Network integration.
// ---------------------------------------------------------------------------

TEST(NetworkFaults, DroppedMessageNeverDelivered) {
  sim::Simulator sim;
  Network net(sim, 2, test_config());
  FaultPlan plan;
  plan.drop_prob = 1.0;
  FaultInjector inj(plan);
  net.attach_faults(&inj);
  // Sender still pays TX serialization for the lost message.
  const TimeS tx_done = net.post(msg(0, 1, 125'000'000));
  EXPECT_DOUBLE_EQ(tx_done, 1.0);
  EXPECT_EQ(drain_inbox(sim, net, 1), 0);
  EXPECT_EQ(net.messages_posted(), 1);
  EXPECT_EQ(net.messages_delivered(), 0);
  EXPECT_EQ(net.messages_dropped(), 1);
  EXPECT_EQ(net.bytes_dropped(), 125'000'000);
}

TEST(NetworkFaults, PostedEqualsDeliveredPlusDropped) {
  sim::Simulator sim;
  Network net(sim, 3, test_config());
  FaultPlan plan;
  plan.drop_prob = 0.5;
  plan.seed = 3;
  FaultInjector inj(plan);
  net.attach_faults(&inj);
  for (int i = 0; i < 100; ++i) net.post(msg(0, 1 + (i % 2), 1000));
  sim.run();
  EXPECT_EQ(net.messages_posted(), 100);
  EXPECT_EQ(net.messages_delivered() + net.messages_dropped(), 100);
  EXPECT_GT(net.messages_dropped(), 0);
  EXPECT_GT(net.messages_delivered(), 0);
}

TEST(NetworkFaults, DegradationWindowSlowsAndDelays) {
  sim::Simulator sim;
  Network net(sim, 2, test_config(gbps(1), 0.0));
  FaultPlan plan;
  // Node 0 egress at 50% bandwidth with +0.25 s latency during [0, 10).
  plan.degradations.push_back({0, 0.0, 10.0, 0.5, 0.25});
  FaultInjector inj(plan);
  net.attach_faults(&inj);
  const TimeS tx_done = net.post(msg(0, 1, 125'000'000));
  EXPECT_DOUBLE_EQ(tx_done, 2.0);  // 1 s at half rate = 2 s
  TimeS arrival = -1;
  sim.spawn([](Network& n, TimeS& out) -> sim::Task {
    (void)co_await n.inbox(1).pop();
    out = n.simulator().now();
  }(net, arrival));
  sim.run();
  // 2 s TX + 0.25 s latency spike + 1 s RX (RX rate undegraded).
  EXPECT_DOUBLE_EQ(arrival, 3.25);
}

TEST(NetworkFaults, DegradationOutsideWindowIsFree) {
  sim::Simulator sim;
  Network net(sim, 2, test_config(gbps(1), 0.0));
  FaultPlan plan;
  plan.degradations.push_back({0, 5.0, 6.0, 0.1, 1.0});
  FaultInjector inj(plan);
  net.attach_faults(&inj);
  EXPECT_DOUBLE_EQ(net.post(msg(0, 1, 125'000'000)), 1.0);
}

TEST(NetworkFaults, NodePauseFreezesNic) {
  sim::Simulator sim;
  Network net(sim, 2, test_config(gbps(1), 0.0));
  FaultPlan plan;
  plan.pauses.push_back({0, 0.0, 3.0});  // node 0 frozen [0, 3)
  FaultInjector inj(plan);
  net.attach_faults(&inj);
  // TX cannot start until the pause releases.
  EXPECT_DOUBLE_EQ(net.post(msg(0, 1, 125'000'000)), 4.0);
}

TEST(NetworkFaults, ReceiverPauseDefersRxSerialization) {
  sim::Simulator sim;
  Network net(sim, 2, test_config(gbps(1), 0.0));
  FaultPlan plan;
  plan.pauses.push_back({1, 0.0, 5.0});  // receiver frozen [0, 5)
  FaultInjector inj(plan);
  net.attach_faults(&inj);
  net.post(msg(0, 1, 125'000'000));  // TX [0, 1]
  TimeS arrival = -1;
  sim.spawn([](Network& n, TimeS& out) -> sim::Task {
    (void)co_await n.inbox(1).pop();
    out = n.simulator().now();
  }(net, arrival));
  sim.run();
  EXPECT_DOUBLE_EQ(arrival, 6.0);  // RX starts at release (5) + 1 s
}

TEST(NetworkFaults, LoopbackBypassesFaults) {
  sim::Simulator sim;
  Network net(sim, 2, test_config());
  FaultPlan plan;
  plan.drop_prob = 1.0;
  plan.pauses.push_back({0, 0.0, 100.0});
  FaultInjector inj(plan);
  net.attach_faults(&inj);
  net.post(msg(0, 0, 1000));
  EXPECT_EQ(drain_inbox(sim, net, 0), 1);
  EXPECT_EQ(net.messages_dropped(), 0);
}

TEST(NetworkFaults, TimelineRecordsDropSpans) {
  sim::Simulator sim;
  Network net(sim, 2, test_config(gbps(1), 0.0));
  trace::Timeline tl;
  net.attach_tracer(&tl.tracer());
  FaultPlan plan;
  plan.drop_prob = 1.0;
  FaultInjector inj(plan);
  net.attach_faults(&inj);
  Message m = msg(0, 1, 125'000'000);
  m.layer = 3;
  net.post(m);
  sim.run();
  const auto drops = tl.lane_spans("n0.drop");
  ASSERT_EQ(drops.size(), 1u);
  EXPECT_EQ(drops[0].label, "xgL3");
  EXPECT_DOUBLE_EQ(drops[0].start, 0.0);
  EXPECT_DOUBLE_EQ(drops[0].end, 1.0);
  // The TX span still exists (sender serialized it); no RX span.
  EXPECT_EQ(tl.lane_spans("n0.tx").size(), 1u);
  EXPECT_TRUE(tl.lane_spans("n1.rx").empty());
}

TEST(NetworkFaults, MonitorOnlyRecordsOutboundForDrops) {
  sim::Simulator sim;
  Network net(sim, 2, test_config(gbps(1), 0.0));
  UtilizationMonitor mon(2, 0.010);
  net.attach_monitor(&mon);
  FaultPlan plan;
  plan.drop_prob = 1.0;
  FaultInjector inj(plan);
  net.attach_faults(&inj);
  net.post(msg(0, 1, 125'000'000));
  sim.run();
  EXPECT_NEAR(mon.total_bytes(0, Direction::kOut), 125e6, 1.0);
  EXPECT_NEAR(mon.total_bytes(1, Direction::kIn), 0.0, 1e-9);
}

// ---------------------------------------------------------------------------
// Plan validation: each class of nonsense is rejected on its own, with the
// injector never constructed (attach-time contract, one case per rejection).
// ---------------------------------------------------------------------------

TEST(FaultPlanValidate, RejectsGlobalDropProbabilityOutsideUnitInterval) {
  FaultPlan plan;
  plan.drop_prob = -0.1;
  EXPECT_THROW(plan.validate(), std::invalid_argument);
  plan.drop_prob = 1.0 + 1e-9;
  EXPECT_THROW(plan.validate(), std::invalid_argument);
}

TEST(FaultPlanValidate, RejectsLinkDropProbabilityOutsideUnitInterval) {
  FaultPlan plan;
  plan.link_drops.push_back({0, 1, -0.5});
  EXPECT_THROW(plan.validate(), std::invalid_argument);
  plan.link_drops[0].probability = 2.0;
  EXPECT_THROW(plan.validate(), std::invalid_argument);
}

TEST(FaultPlanValidate, RejectsNegativeOrInvertedFlapWindows) {
  FaultPlan plan;
  plan.flaps.push_back({0, 1, -1.0, 2.0});
  EXPECT_THROW(plan.validate(), std::invalid_argument);
  plan.flaps[0] = {0, 1, 2.0, 1.0};  // inverted
  EXPECT_THROW(plan.validate(), std::invalid_argument);
}

TEST(FaultPlanValidate, RejectsDegenerateDegradations) {
  FaultPlan plan;
  plan.degradations.push_back({0, 0.0, 1.0, 0.0, 0.0});  // factor of zero
  EXPECT_THROW(plan.validate(), std::invalid_argument);
  plan.degradations[0] = {0, 0.0, 1.0, 1.5, 0.0};  // factor above one
  EXPECT_THROW(plan.validate(), std::invalid_argument);
  plan.degradations[0] = {0, 0.0, 1.0, 0.5, -0.001};  // negative latency
  EXPECT_THROW(plan.validate(), std::invalid_argument);
  plan.degradations[0] = {0, -1.0, 1.0, 0.5, 0.0};  // negative start
  EXPECT_THROW(plan.validate(), std::invalid_argument);
  plan.degradations[0] = {0, 2.0, 1.0, 0.5, 0.0};  // inverted window
  EXPECT_THROW(plan.validate(), std::invalid_argument);
}

TEST(FaultPlanValidate, RejectsNegativePauses) {
  FaultPlan plan;
  plan.pauses.push_back({0, -1.0, 0.5});
  EXPECT_THROW(plan.validate(), std::invalid_argument);
  plan.pauses[0] = {0, 0.5, -1.0};
  EXPECT_THROW(plan.validate(), std::invalid_argument);
}

TEST(FaultPlanValidate, RejectsAnonymousOrNegativeTimeCrashes) {
  FaultPlan plan;
  plan.crashes.push_back({-1, 0.5, -1.0});  // a crash must name its victim
  EXPECT_THROW(plan.validate(), std::invalid_argument);
  plan.crashes[0] = {0, -0.5, -1.0};  // negative crash time
  EXPECT_THROW(plan.validate(), std::invalid_argument);
  plan.crashes[0] = {0, 0.5, 0.25};  // restart is legal
  EXPECT_NO_THROW(plan.validate());
}

TEST(FaultPlanValidate, RejectsAnonymousOrNegativeTimeJoins) {
  FaultPlan plan;
  plan.joins.push_back({-1, 0.5});  // a join must name its node
  EXPECT_THROW(plan.validate(), std::invalid_argument);
  plan.joins[0] = {4, -0.5};  // negative join time
  EXPECT_THROW(plan.validate(), std::invalid_argument);
  plan.joins[0] = {4, 0.5};
  EXPECT_NO_THROW(plan.validate());
}

TEST(FaultPlanValidate, RejectsJoinForAnExistingMember) {
  // With the cluster size known, a join for a base-node id is a join for a
  // node that is already a member at join time.
  FaultPlan plan;
  plan.joins.push_back({2, 0.5});
  EXPECT_THROW(plan.validate(4), std::invalid_argument);
  EXPECT_NO_THROW(plan.validate());  // cluster size unknown: not checkable
  // A duplicate join is the same mistake one event later, and is rejected
  // even without the cluster size.
  plan.joins[0] = {4, 0.5};
  plan.joins.push_back({4, 0.8});
  EXPECT_THROW(plan.validate(), std::invalid_argument);
  EXPECT_THROW(plan.validate(4), std::invalid_argument);
}

TEST(FaultPlanValidate, RejectsNonContiguousJoinerIds) {
  FaultPlan plan;
  plan.joins.push_back({5, 0.5});  // base is 4: the first joiner must be 4
  EXPECT_THROW(plan.validate(4), std::invalid_argument);
  plan.joins[0] = {4, 0.5};
  plan.joins.push_back({5, 0.8});  // 4 then 5: contiguous, any event order
  EXPECT_NO_THROW(plan.validate(4));
}

TEST(FaultPlanValidate, RejectsJoinInsideTheNodesCrashWindow) {
  FaultPlan plan;
  plan.crashes.push_back({4, 0.6, 0.3});  // node 4 down during [0.6, 0.9)
  plan.joins.push_back({4, 0.7});         // the joining process cannot be down
  EXPECT_THROW(plan.validate(), std::invalid_argument);
  plan.joins[0].at = 0.95;  // after the restart window — but the crash now
  // precedes the join, which is equally nonsense (nothing exists to crash).
  EXPECT_THROW(plan.validate(), std::invalid_argument);
  plan.joins[0].at = 0.2;  // join first, crash later: a legal elastic story
  EXPECT_NO_THROW(plan.validate());
}

TEST(FaultPlanValidate, RejectsMalformedLeaves) {
  FaultPlan plan;
  plan.leaves.push_back({-1, 0.5});  // a leave must name its node
  EXPECT_THROW(plan.validate(), std::invalid_argument);
  plan.leaves[0] = {1, -0.5};  // negative leave time
  EXPECT_THROW(plan.validate(), std::invalid_argument);
  plan.leaves[0] = {1, 0.5};
  plan.leaves.push_back({1, 0.8});  // a node can only leave once
  EXPECT_THROW(plan.validate(), std::invalid_argument);
  plan.leaves.pop_back();
  EXPECT_NO_THROW(plan.validate(4, 2));
  plan.leaves[0].node = 7;  // base 4, no joins: node 7 never exists
  EXPECT_THROW(plan.validate(4, 2), std::invalid_argument);
}

TEST(FaultPlanValidate, RejectsLeaveWhileTheNodeIsDown) {
  FaultPlan plan;
  plan.crashes.push_back({1, 0.4, 0.3});  // node 1 down during [0.4, 0.7)
  plan.leaves.push_back({1, 0.5});        // a dead process cannot drain
  EXPECT_THROW(plan.validate(), std::invalid_argument);
  plan.leaves[0].at = 0.3;  // crash lands mid-drain: the chaos path, legal
  EXPECT_NO_THROW(plan.validate(4, 2));
  // A leave of a joiner must come after its join.
  FaultPlan joiner;
  joiner.joins.push_back({4, 0.5});
  joiner.leaves.push_back({4, 0.2});
  EXPECT_THROW(joiner.validate(4, 2), std::invalid_argument);
  joiner.leaves[0].at = 0.8;
  EXPECT_NO_THROW(joiner.validate(4, 2));
}

TEST(FaultPlanValidate, RejectsLeaveDroppingAGroupsLastLiveReplica) {
  // Replication 1 and no joiners: the leaving node's shard group would be
  // left with nobody legal to adopt it.
  FaultPlan plan;
  plan.leaves.push_back({1, 0.5});
  EXPECT_THROW(plan.validate(4, 1), std::invalid_argument);
  EXPECT_NO_THROW(plan.validate(4, 2));  // the home chain absorbs it
  // A permanent crash of the only other chain member is the same loss.
  plan.crashes.push_back({2, 0.3, -1.0});
  EXPECT_THROW(plan.validate(4, 2), std::invalid_argument);
  // A joiner can always absorb the orphaned group.
  plan.joins.push_back({4, 0.1});
  EXPECT_NO_THROW(plan.validate(4, 2));
}

TEST(FaultPlanValidate, LeavesAreNotWireFaults) {
  FaultPlan plan;
  plan.leaves.push_back({1, 0.5});
  EXPECT_FALSE(plan.active());
}

TEST(FaultPlanValidate, RejectsNonPositiveLeaseDurations) {
  FaultPlan plan;
  plan.lease_duration = 0.0;
  EXPECT_THROW(plan.validate(), std::invalid_argument);
  plan.lease_duration = -0.05;
  EXPECT_THROW(plan.validate(), std::invalid_argument);
  plan.lease_duration = 0.05;
  EXPECT_NO_THROW(plan.validate());
}

TEST(FaultPlanValidate, JoinsAndLeasesAreNotWireFaults) {
  // Joins and lease durations configure the protocol layer, not the wire:
  // they must not activate the injector (active() gates the reliability
  // layer and the fault-injection RNG).
  FaultPlan plan;
  plan.joins.push_back({4, 0.5});
  plan.lease_duration = 0.1;
  EXPECT_FALSE(plan.active());
}

TEST(FaultPlanValidate, CrashPlansAreActiveAndInjectorValidatesOnAttach) {
  FaultPlan plan;
  plan.crashes.push_back({1, 0.5, -1.0});
  EXPECT_TRUE(plan.active());
  FaultPlan bad = plan;
  bad.crashes.push_back({-1, 0.5, -1.0});
  EXPECT_THROW(FaultInjector{bad}, std::invalid_argument);
}

// ---------------------------------------------------------------------------
// NetPartition plan validation: each class of malformed cut is rejected on
// its own, and partitions arm the plan like any other wire fault.
// ---------------------------------------------------------------------------

NetPartition cut(std::vector<int> a, std::vector<int> b, TimeS start,
                 TimeS heal) {
  NetPartition p;
  p.side_a = std::move(a);
  p.side_b = std::move(b);
  p.start = start;
  p.heal = heal;
  return p;
}

TEST(FaultPlanValidate, RejectsPartitionWithAnEmptySide) {
  FaultPlan plan;
  plan.partitions.push_back(cut({}, {2, 3}, 0.1, 0.5));
  EXPECT_THROW(plan.validate(), std::invalid_argument);
  plan.partitions[0] = cut({0, 1}, {}, 0.1, 0.5);
  EXPECT_THROW(plan.validate(), std::invalid_argument);
}

TEST(FaultPlanValidate, RejectsOverlappingPartitionSides) {
  FaultPlan plan;
  plan.partitions.push_back(cut({0, 1}, {1, 2}, 0.1, 0.5));
  EXPECT_THROW(plan.validate(), std::invalid_argument);
}

TEST(FaultPlanValidate, RejectsNegativePartitionNodeIds) {
  FaultPlan plan;
  plan.partitions.push_back(cut({-1}, {2}, 0.1, 0.5));
  EXPECT_THROW(plan.validate(), std::invalid_argument);
  plan.partitions[0] = cut({0}, {-2}, 0.1, 0.5);
  EXPECT_THROW(plan.validate(), std::invalid_argument);
}

TEST(FaultPlanValidate, RejectsInvertedOrNegativePartitionWindows) {
  FaultPlan plan;
  plan.partitions.push_back(cut({0}, {1}, 0.5, 0.5));  // heal == start
  EXPECT_THROW(plan.validate(), std::invalid_argument);
  plan.partitions[0] = cut({0}, {1}, 0.5, 0.2);  // heal before start
  EXPECT_THROW(plan.validate(), std::invalid_argument);
  plan.partitions[0] = cut({0}, {1}, -0.1, 0.5);  // negative start
  EXPECT_THROW(plan.validate(), std::invalid_argument);
  plan.partitions[0] = cut({0}, {1}, 0.1, 0.5);
  plan.partitions[0].flap_period = -0.2;  // negative flap period
  EXPECT_THROW(plan.validate(), std::invalid_argument);
  plan.partitions[0].flap_period = 0.0;
  EXPECT_NO_THROW(plan.validate());
}

TEST(FaultPlanValidate, RejectsPartitionOfANodeThatNeverExists) {
  FaultPlan plan;
  plan.partitions.push_back(cut({0, 1}, {2, 3, 7}, 0.1, 0.5));
  // Without the cluster size the id cannot be checked; with it, node 7
  // never exists in a 4-node cluster.
  EXPECT_NO_THROW(plan.validate());
  EXPECT_THROW(plan.validate(4), std::invalid_argument);
  // A joiner extends the cluster: ids up to base + joins are legal.
  plan.partitions[0] = cut({0, 1}, {2, 3, 4}, 0.1, 0.5);
  EXPECT_THROW(plan.validate(4), std::invalid_argument);
  plan.joins.push_back({4, 0.05});
  EXPECT_NO_THROW(plan.validate(4));
}

TEST(FaultPlanValidate, RejectsClockDriftOutsideBounds) {
  FaultPlan plan;
  plan.clock_drift_rate = -0.001;
  EXPECT_THROW(plan.validate(), std::invalid_argument);
  plan.clock_drift_rate = 1.0;  // a clock cannot run backwards
  EXPECT_THROW(plan.validate(), std::invalid_argument);
  plan.clock_drift_rate = 0.001;
  plan.clock_offset_bound = -0.01;
  EXPECT_THROW(plan.validate(), std::invalid_argument);
  plan.clock_offset_bound = 0.01;
  EXPECT_NO_THROW(plan.validate());
  EXPECT_TRUE(plan.skewed());
  // Drift alone is a clock model, not a wire fault.
  EXPECT_FALSE(plan.active());
}

TEST(FaultPlanValidate, PartitionsArmThePlan) {
  FaultPlan plan;
  plan.partitions.push_back(cut({0}, {1}, 0.1, 0.5));
  EXPECT_TRUE(plan.active());
}

// ---------------------------------------------------------------------------
// NetPartition semantics: who is severed from whom, when.
// ---------------------------------------------------------------------------

TEST(NetPartition, SymmetricCutSeversBothDirectionsDuringWindow) {
  const NetPartition p = cut({0, 1}, {2, 3}, 1.0, 2.0);
  EXPECT_FALSE(p.severs(0, 2, 0.999));  // before the cut
  EXPECT_TRUE(p.severs(0, 2, 1.0));     // a -> b
  EXPECT_TRUE(p.severs(3, 1, 1.5));     // b -> a (symmetric)
  EXPECT_FALSE(p.severs(0, 1, 1.5));    // same side: untouched
  EXPECT_FALSE(p.severs(2, 3, 1.5));
  EXPECT_FALSE(p.severs(0, 2, 2.0));    // healed (heal is exclusive)
}

TEST(NetPartition, AsymmetricCutSeversOnlyAToB) {
  NetPartition p = cut({0}, {1}, 1.0, 2.0);
  p.symmetric = false;
  EXPECT_TRUE(p.severs(0, 1, 1.5));
  EXPECT_FALSE(p.severs(1, 0, 1.5));  // the reverse path still works
}

TEST(NetPartition, FlappingCutIsActiveFirstHalfOfEachPeriod) {
  NetPartition p = cut({0}, {1}, 1.0, 2.0);
  p.flap_period = 0.4;  // on [1.0, 1.2), off [1.2, 1.4), on [1.4, 1.6), ...
  EXPECT_TRUE(p.severs(0, 1, 1.1));
  EXPECT_FALSE(p.severs(0, 1, 1.3));
  EXPECT_TRUE(p.severs(0, 1, 1.5));
  EXPECT_FALSE(p.severs(0, 1, 1.7));
  EXPECT_TRUE(p.severs(0, 1, 1.9));
  EXPECT_FALSE(p.severs(0, 1, 2.1));  // past heal: flap or not, it is over
}

TEST(NetPartition, SeversDuringCatchesAnyOverlapWithTheWindow) {
  const NetPartition p = cut({0}, {1}, 1.0, 2.0);
  EXPECT_FALSE(p.severs_during(0, 1, 0.0, 0.999));  // entirely before
  EXPECT_TRUE(p.severs_during(0, 1, 0.5, 1.0));     // touches the start
  EXPECT_TRUE(p.severs_during(0, 1, 1.2, 1.3));     // inside
  EXPECT_TRUE(p.severs_during(0, 1, 0.5, 3.0));     // spans the whole cut
  EXPECT_FALSE(p.severs_during(0, 1, 2.0, 3.0));    // entirely after
  EXPECT_TRUE(p.severs_during(1, 0, 0.5, 3.0));     // symmetric: both ways
}

TEST(NetPartition, SeversDuringRespectsFlapOffWindows) {
  NetPartition p = cut({0}, {1}, 1.0, 2.0);
  p.flap_period = 0.4;  // on-windows [1.0, 1.2), [1.4, 1.6), [1.8, 2.0)
  EXPECT_TRUE(p.severs_during(0, 1, 1.0, 1.1));
  EXPECT_FALSE(p.severs_during(0, 1, 1.25, 1.35));  // inside an off-window
  EXPECT_TRUE(p.severs_during(0, 1, 1.3, 1.45));    // reaches the next on
}

// ---------------------------------------------------------------------------
// Network integration: the fabric enforces the cut at TX time, tears down
// in-flight transfers the cut overtakes, and delivers again after heal —
// with the ground-truth cross-partition audit reading zero throughout.
// ---------------------------------------------------------------------------

TEST(NetworkPartition, MessagesIntoTheCutDieAsPartitionDrops) {
  sim::Simulator sim;
  Network net(sim, 2, test_config(gbps(1), 0.0));
  FaultPlan plan;
  plan.partitions.push_back(cut({0}, {1}, 1.0, 2.0));
  FaultInjector inj(plan);
  net.attach_faults(&inj);
  sim.schedule_at(1.5, [&] { net.post(msg(0, 1, 1'000)); });
  EXPECT_EQ(drain_inbox(sim, net, 1), 0);
  EXPECT_EQ(net.messages_dropped(), 1);
  EXPECT_EQ(inj.partition_drops(), 1);
  EXPECT_EQ(net.cross_partition_deliveries(), 0);
}

TEST(NetworkPartition, InFlightTransferTornDownWhenTheCutStarts) {
  sim::Simulator sim;
  Network net(sim, 2, test_config(gbps(1), 0.0));
  FaultPlan plan;
  plan.partitions.push_back(cut({0}, {1}, 0.5, 2.0));
  FaultInjector inj(plan);
  net.attach_faults(&inj);
  // 125 MB at 1 Gb/s: TX [0, 1) starts pre-cut, but the RX window lands
  // inside the cut — the transfer left the sender and dies in the fabric.
  net.post(msg(0, 1, 125'000'000));
  EXPECT_EQ(drain_inbox(sim, net, 1), 0);
  EXPECT_EQ(net.messages_dropped(), 1);
  EXPECT_EQ(net.cross_partition_deliveries(), 0);
}

TEST(NetworkPartition, HealedCutCarriesTrafficAgain) {
  sim::Simulator sim;
  Network net(sim, 2, test_config(gbps(1), 0.0));
  FaultPlan plan;
  plan.partitions.push_back(cut({0}, {1}, 0.5, 1.0));
  FaultInjector inj(plan);
  net.attach_faults(&inj);
  Message before = msg(0, 1, 1'000);
  Message during = msg(0, 1, 1'000);
  Message after = msg(0, 1, 1'000);
  net.post(before);
  sim.schedule_at(0.7, [&] { net.post(during); });
  sim.schedule_at(1.1, [&] { net.post(after); });
  EXPECT_EQ(drain_inbox(sim, net, 1), 2);  // before + after survive
  EXPECT_EQ(inj.partition_drops(), 1);
  EXPECT_EQ(net.cross_partition_deliveries(), 0);
}

TEST(NetworkPartition, AsymmetricCutLeavesTheReversePathOpen) {
  sim::Simulator sim;
  Network net(sim, 2, test_config(gbps(1), 0.0));
  FaultPlan plan;
  NetPartition p = cut({0}, {1}, 0.0, 10.0);
  p.symmetric = false;
  plan.partitions.push_back(p);
  FaultInjector inj(plan);
  net.attach_faults(&inj);
  net.post(msg(0, 1, 1'000));  // severed direction
  net.post(msg(1, 0, 1'000));  // open direction
  EXPECT_EQ(drain_inbox(sim, net, 1), 0);
  EXPECT_EQ(drain_inbox(sim, net, 0), 1);
  EXPECT_EQ(inj.partition_drops(), 1);
  EXPECT_EQ(net.cross_partition_deliveries(), 0);
}

// ---------------------------------------------------------------------------
// NodeCrash wire semantics: TX from a dead process never starts, a transfer
// whose RX window overlaps the victim's down window dies in the fabric, and
// a restarted node sends and receives again.
// ---------------------------------------------------------------------------

TEST(NetworkFaults, CrashedSourceCannotTransmit) {
  sim::Simulator sim;
  Network net(sim, 2, test_config(gbps(1), 0.0));
  FaultPlan plan;
  plan.crashes.push_back({0, 0.5, -1.0});
  FaultInjector inj(plan);
  net.attach_faults(&inj);
  Message early = msg(0, 1, 1'000);
  Message late = msg(0, 1, 1'000);
  net.post(early);                       // enters the wire at t=0: delivered
  sim.schedule_at(0.6, [&] { net.post(late); });  // posted post-mortem
  EXPECT_EQ(drain_inbox(sim, net, 1), 1);
  EXPECT_EQ(net.messages_dropped(), 1);
}

TEST(NetworkFaults, InFlightTransferTornDownWhenReceiverDies) {
  sim::Simulator sim;
  Network net(sim, 2, test_config(gbps(1), 0.0));
  FaultPlan plan;
  plan.crashes.push_back({1, 0.5, -1.0});
  FaultInjector inj(plan);
  net.attach_faults(&inj);
  // 125 MB at 1 Gb/s serializes for 1 s per NIC: the RX window lands after
  // the crash at 0.5, so the transfer dies in the fabric with the node.
  net.post(msg(0, 1, 125'000'000));
  EXPECT_EQ(drain_inbox(sim, net, 1), 0);
}

TEST(NetworkFaults, RestartedNodeExchangesTrafficAgain) {
  sim::Simulator sim;
  Network net(sim, 3, test_config(gbps(1), 0.0));
  FaultPlan plan;
  plan.crashes.push_back({1, 0.5, 0.25});  // down during [0.5, 0.75)
  FaultInjector inj(plan);
  net.attach_faults(&inj);
  Message during_down = msg(0, 1, 1'000);
  Message after_up = msg(0, 1, 1'000);
  Message from_revenant = msg(1, 2, 1'000);
  sim.schedule_at(0.6, [&] { net.post(during_down); });
  sim.schedule_at(0.8, [&] {
    net.post(after_up);
    net.post(from_revenant);
  });
  EXPECT_EQ(drain_inbox(sim, net, 1), 1);  // only the post-restart message
  EXPECT_EQ(drain_inbox(sim, net, 2), 1);  // the restarted node can send
  EXPECT_EQ(net.messages_dropped(), 1);
}

}  // namespace
}  // namespace p3::net
