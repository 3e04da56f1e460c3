// Rack-scale topology: validate() rejects malformed shapes, hierarchical
// routing pays the per-hop serialization and latency arithmetic exactly,
// shared switch ports serve strictly by priority (overtakes allowed,
// inversions impossible — unless the FIFO ablation is on), a port's O(1)
// queue serves and judges exactly as a scan of its waiting transfers does,
// and a flat network keeps every hierarchy counter at zero.
#include "net/topology.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "net/network.h"
#include "sim/simulator.h"

namespace p3::net {
namespace {

Topology two_racks(double oversub = 1.0) {
  Topology topo;
  topo.racks = {{0, 1}, {2, 3}};
  topo.oversubscription = oversub;
  return topo;
}

Message msg(int src, int dst, Bytes bytes, int priority = 0) {
  Message m;
  m.src = src;
  m.dst = dst;
  m.bytes = bytes;
  m.kind = MsgKind::kPushGradient;
  m.priority = priority;
  return m;
}

// ---------------------------------------------------------------------------
// validate(): every malformed shape is rejected at construction time.
// ---------------------------------------------------------------------------

TEST(Topology, InactiveTopologyValidatesTrivially) {
  Topology flat;
  EXPECT_FALSE(flat.active());
  EXPECT_NO_THROW(flat.validate());
  EXPECT_NO_THROW(flat.validate(16));
  EXPECT_EQ(flat.rack_of(0), -1);
}

TEST(Topology, ValidShapeAccepted) {
  Topology topo = two_racks(4.0);
  topo.aggregators = {1, 2};
  EXPECT_NO_THROW(topo.validate(4));
  EXPECT_EQ(topo.n_racks(), 2);
  EXPECT_EQ(topo.rack_of(0), 0);
  EXPECT_EQ(topo.rack_of(3), 1);
  EXPECT_EQ(topo.aggregator_of(0), 1);
  EXPECT_EQ(topo.aggregator_of(1), 2);
}

TEST(Topology, AggregatorDefaultsToFirstRackMember) {
  const Topology topo = two_racks();
  EXPECT_EQ(topo.aggregator_of(0), 0);
  EXPECT_EQ(topo.aggregator_of(1), 2);
}

TEST(Topology, RejectsEmptyRack) {
  Topology topo = two_racks();
  topo.racks.push_back({});
  EXPECT_THROW(topo.validate(), std::invalid_argument);
}

TEST(Topology, RejectsNodeInTwoRacks) {
  Topology topo = two_racks();
  topo.racks[1] = {1, 2, 3};  // node 1 also lives in rack 0
  EXPECT_THROW(topo.validate(), std::invalid_argument);
}

TEST(Topology, RejectsUncoveredOrOutOfRangeNodesWhenSized) {
  Topology topo = two_racks();
  EXPECT_THROW(topo.validate(5), std::invalid_argument);  // node 4 uncovered
  EXPECT_THROW(topo.validate(3), std::invalid_argument);  // node 3 out of range
  EXPECT_NO_THROW(topo.validate(4));
}

TEST(Topology, RejectsNonPositiveUplinkRate) {
  Topology topo = two_racks();
  topo.uplink_rate = 0.0;
  EXPECT_THROW(topo.validate(), std::invalid_argument);
  topo.uplink_rate = -1.0;
  EXPECT_THROW(topo.validate(), std::invalid_argument);
}

TEST(Topology, RejectsOversubscriptionBelowOne) {
  Topology topo = two_racks(0.5);
  EXPECT_THROW(topo.validate(), std::invalid_argument);
}

TEST(Topology, RejectsNegativeTierLatency) {
  Topology topo = two_racks();
  topo.tor_latency = -us(1);
  EXPECT_THROW(topo.validate(), std::invalid_argument);
  topo = two_racks();
  topo.spine_latency = -us(1);
  EXPECT_THROW(topo.validate(), std::invalid_argument);
}

TEST(Topology, RejectsAggregatorListSizeMismatch) {
  Topology topo = two_racks();
  topo.aggregators = {0};  // two racks, one entry
  EXPECT_THROW(topo.validate(), std::invalid_argument);
}

TEST(Topology, RejectsAggregatorOutsideItsRack) {
  Topology topo = two_racks();
  topo.aggregators = {0, 1};  // node 1 is in rack 0, not rack 1
  EXPECT_THROW(topo.validate(), std::invalid_argument);
}

TEST(Topology, NetworkConstructorValidatesAgainstNodeCount) {
  sim::Simulator sim;
  NetworkConfig cfg;
  cfg.topology = two_racks();  // covers nodes 0..3 only
  EXPECT_THROW(Network(sim, 5, cfg), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Hop arithmetic: an uncontended transfer pays exactly NIC serialization +
// per-tier latencies + switch-port serialization + RX serialization.
// ---------------------------------------------------------------------------

struct HierNet {
  sim::Simulator sim;
  Network net;

  explicit HierNet(const NetworkConfig& cfg) : net(sim, 4, cfg) {}
};

NetworkConfig hier_config(double oversub) {
  NetworkConfig cfg;
  cfg.rate = gbps(1);
  cfg.rx_rate = gbps(100);
  cfg.topology = two_racks(oversub);
  cfg.topology.tor_latency = us(2);
  cfg.topology.spine_latency = us(10);
  return cfg;
}

TEST(HierRouting, IntraRackPaysTwoTorHopsAndNoPort) {
  HierNet h(hier_config(1.0));
  const Bytes bytes = 125'000;  // 1 ms at 1 Gbps
  h.net.post(msg(0, 1, bytes));
  h.sim.run();  // final event is the delivery at rx_end
  EXPECT_TRUE(h.net.inbox(1).try_pop());
  // tx 1 ms + ToR in 2 us + ToR out 2 us + rx at 100 Gbps (10 us).
  const TimeS expected = 1e-3 + us(2) + us(2) + 1e-5;
  EXPECT_NEAR(h.sim.now(), expected, 1e-12);
  // Local traffic never touches the shared uplink.
  EXPECT_EQ(h.net.tor_uplink_bytes(), 0);
}

TEST(HierRouting, CrossRackAddsUplinkSpineAndDownlink) {
  HierNet h(hier_config(2.0));
  const Bytes bytes = 125'000;  // 1 ms on the NIC
  h.net.post(msg(0, 2, bytes));
  h.sim.run();
  EXPECT_TRUE(h.net.inbox(2).try_pop());
  // Uplink capacity = 2 NICs / 2.0 oversubscription = 1 Gbps, so each
  // switch tier re-serializes the payload at 1 ms. Path: tx 1 ms + ToR
  // 2 us + uplink 1 ms + spine 10 us + downlink 1 ms + ToR 2 us + rx 10 us.
  const TimeS expected = 1e-3 + us(2) + 1e-3 + us(10) + 1e-3 + us(2) + 1e-5;
  EXPECT_NEAR(h.sim.now(), expected, 1e-12);
  EXPECT_EQ(h.net.tor_uplink_bytes(), bytes);
  const auto up = h.net.rack_stats(0);
  EXPECT_EQ(up.up_bytes, bytes);
  EXPECT_EQ(up.up_peak_queue, 0);  // uncontended: never queued
  const auto down = h.net.rack_stats(1);
  EXPECT_EQ(down.down_bytes, bytes);
}

TEST(HierRouting, ExplicitUplinkRateOverridesOversubscription) {
  NetworkConfig cfg = hier_config(1.0);
  cfg.topology.uplink_rate = gbps(10);
  HierNet h(cfg);
  const Bytes bytes = 125'000;
  h.net.post(msg(0, 2, bytes));
  h.sim.run();
  EXPECT_TRUE(h.net.inbox(2).try_pop());
  // Switch tiers now run at 10 Gbps: 0.1 ms per tier instead of 1 ms.
  const TimeS expected = 1e-3 + us(2) + 1e-4 + us(10) + 1e-4 + us(2) + 1e-5;
  EXPECT_NEAR(h.sim.now(), expected, 1e-12);
}

TEST(HierRouting, TwoRackIncastDeliversInRxOrder) {
  // Node 0 receives from its rack mate 1, from 2 and 3 across the spine, and
  // over loopback. Its RX runs at 0.5 Gbps (2 ms per message), so every
  // remote arrival queues in node 0's RX stream behind the earlier ones.
  NetworkConfig cfg = hier_config(1.0);  // uplinks at 2 Gbps: 0.5 ms a tier
  cfg.rx_rate = gbps(0.5);
  HierNet h(cfg);
  const Bytes bytes = 125'000;  // 1 ms on a NIC
  for (int src = 1; src <= 3; ++src) h.net.post(msg(src, 0, bytes));
  h.net.post(msg(0, 0, bytes));
  // Arrivals at node 0's RX: 1 at 1 ms + 2 ToR hops; 2 after its uplink and
  // downlink tiers at 2.014 ms; 3 queued behind 2 at rack 1's uplink, so
  // half a millisecond later.
  const TimeS a1 = 1e-3 + us(2) + us(2);
  const TimeS rx = 2e-3;
  std::vector<std::pair<TimeS, int>> arrivals;
  h.sim.spawn([](Network& n, std::vector<std::pair<TimeS, int>>& out)
                  -> sim::Task {
    for (int i = 0; i < 4; ++i) {
      const Message m = *co_await n.inbox(0).pop();
      out.emplace_back(n.simulator().now(), m.src);
    }
  }(h.net, arrivals));
  h.sim.run_until(2.6e-3);
  // Every remote message has reached node 0's RX: the ports are idle and
  // only the stream's head sits in the event heap.
  EXPECT_EQ(h.sim.queued(), 1u);
  h.sim.run();
  ASSERT_EQ(arrivals.size(), 4u);
  EXPECT_EQ(arrivals[0].second, 0);
  EXPECT_NEAR(arrivals[0].first, 1e-3 / 400 + us(2), 1e-12);  // loopback
  const int want_src[] = {1, 2, 3};
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(arrivals[static_cast<std::size_t>(i) + 1].second, want_src[i]);
    EXPECT_NEAR(arrivals[static_cast<std::size_t>(i) + 1].first,
                a1 + rx * (i + 1), 1e-12);
  }
  EXPECT_EQ(h.net.messages_delivered(), 4);
}

// ---------------------------------------------------------------------------
// Port discipline: a later urgent transfer passes queued bulk (overtake)
// and is never made to wait behind it (inversion = 0); the FIFO ablation
// flips both.
// ---------------------------------------------------------------------------

/// Three cross-rack transfers through rack 0's uplink: bulk A (posted
/// first, occupies the port), bulk B (queued), urgent C (queued last).
void run_contended(Network& net, sim::Simulator& sim) {
  const Bytes bytes = 125'000;
  net.post(msg(0, 2, bytes, /*priority=*/9));  // A: owns the port
  net.post(msg(1, 2, bytes, /*priority=*/9));  // B: waits
  net.post(msg(1, 3, bytes, /*priority=*/0));  // C: urgent, arrives last
  sim.run();
}

TEST(PortDiscipline, UrgentTransferOvertakesQueuedBulk) {
  HierNet h(hier_config(4.0));  // uplink at 0.5 Gbps: long service times
  run_contended(h.net, h.sim);
  // C overtook B at the uplink pop; strict priority service means no
  // transfer ever started while a more urgent one waited.
  EXPECT_GT(h.net.uplink_overtakes(), 0);
  EXPECT_EQ(h.net.uplink_priority_inversions(), 0);
}

TEST(PortDiscipline, FifoAblationInvertsInsteadOfOvertaking) {
  NetworkConfig cfg = hier_config(4.0);
  cfg.topology.fifo_ports = true;
  HierNet h(cfg);
  run_contended(h.net, h.sim);
  // FIFO serves B while urgent C waits: that service is an inversion, and
  // nothing ever overtakes.
  EXPECT_EQ(h.net.uplink_overtakes(), 0);
  EXPECT_GT(h.net.uplink_priority_inversions(), 0);
}

// ---------------------------------------------------------------------------
// PortQueue against the scans it replaced: the waiting transfers in arrival
// order, the next one picked by a scan for the least (priority, arrival) —
// or the least arrival under FIFO ports — and judged by a second scan over
// every other waiting transfer.
// ---------------------------------------------------------------------------

class ScanPort {
 public:
  void push(Message* msg) { queue_.push_back({msg, next_seq_++}); }
  bool empty() const { return queue_.empty(); }

  PortQueue::Pop pop(bool fifo) {
    std::size_t pick = 0;
    for (std::size_t i = 1; i < queue_.size(); ++i) {
      const Job& a = queue_[i];
      const Job& b = queue_[pick];
      const bool a_wins =
          fifo ? a.seq < b.seq
               : (a.msg->priority < b.msg->priority ||
                  (a.msg->priority == b.msg->priority && a.seq < b.seq));
      if (a_wins) pick = i;
    }
    const Job next = queue_[pick];
    bool overtook = false;
    bool inverted = false;
    for (std::size_t i = 0; i < queue_.size(); ++i) {
      if (i == pick) continue;
      const Job& other = queue_[i];
      overtook |=
          other.seq < next.seq && other.msg->priority > next.msg->priority;
      inverted |= other.msg->priority < next.msg->priority;
    }
    queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(pick));
    return {next.msg, overtook, inverted};
  }

 private:
  struct Job {
    Message* msg;
    std::int64_t seq;
  };
  std::vector<Job> queue_;
  std::int64_t next_seq_ = 0;
};

struct ScriptTally {
  std::int64_t pops = 0;
  std::int64_t overtakes = 0;
  std::int64_t inversions = 0;
  int lowest = 0;  ///< most urgent priority pushed
};

/// One seeded script of pushes and interleaved pops, driven through both
/// queues. Priorities fall in 0..200 for the first half, so the most urgent
/// values -5..-1 arrive only once the lists are laid out; a third of the
/// pushes draw from a few hot values, so equal priorities queue together.
/// Bursts let the queue build up and drain. Every pop must serve the same
/// transfer with the same judgments.
ScriptTally run_script(std::uint64_t seed, bool fifo) {
  constexpr int kOps = 2000;
  Rng rng(seed);
  std::deque<Message> messages;
  PortQueue fast;
  ScanPort scan;
  ScriptTally tally;
  for (int op = 0; op < kOps; ++op) {
    const double push_share = (op / 100) % 2 == 0 ? 0.7 : 0.35;
    if (scan.empty() || rng.uniform() < push_share) {
      int priority;
      if (rng.uniform() < 1.0 / 3) {
        priority = static_cast<int>(rng.uniform_index(4)) * 3;
      } else if (op < kOps / 2) {
        priority = static_cast<int>(rng.uniform_index(201));
      } else {
        priority = static_cast<int>(rng.uniform_index(206)) - 5;
      }
      Message& m = messages.emplace_back();
      m.priority = priority;
      tally.lowest = std::min(tally.lowest, priority);
      fast.push(&m);
      scan.push(&m);
      continue;
    }
    const PortQueue::Pop want = scan.pop(fifo);
    const PortQueue::Pop got = fast.pop(fifo);
    ++tally.pops;
    if (got.msg != want.msg || got.overtook != want.overtook ||
        got.inverted != want.inverted) {
      ADD_FAILURE() << "seed " << seed << (fifo ? " fifo" : " priority")
                    << ", op " << op << ": served priority "
                    << got.msg->priority << " (overtook " << got.overtook
                    << ", inverted " << got.inverted << "), reference "
                    << want.msg->priority << " (" << want.overtook << ", "
                    << want.inverted << ")";
      return tally;
    }
    tally.overtakes += got.overtook ? 1 : 0;
    tally.inversions += got.inverted ? 1 : 0;
    EXPECT_EQ(fast.size(),
              messages.size() - static_cast<std::size_t>(tally.pops));
  }
  while (!scan.empty()) {
    const PortQueue::Pop want = scan.pop(fifo);
    const PortQueue::Pop got = fast.pop(fifo);
    EXPECT_EQ(got.msg, want.msg);
    EXPECT_EQ(got.overtook, want.overtook);
    EXPECT_EQ(got.inverted, want.inverted);
  }
  EXPECT_TRUE(fast.empty());
  return tally;
}

TEST(PortQueueScan, PriorityServiceMatchesTheScans) {
  std::int64_t overtakes = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const ScriptTally t = run_script(seed, /*fifo=*/false);
    EXPECT_GT(t.pops, 500);
    EXPECT_LT(t.lowest, 0) << "the range never widened, seed " << seed;
    EXPECT_EQ(t.inversions, 0);
    overtakes += t.overtakes;
  }
  EXPECT_GT(overtakes, 0);
}

TEST(PortQueueScan, FifoServiceMatchesTheScans) {
  std::int64_t inversions = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const ScriptTally t = run_script(seed, /*fifo=*/true);
    EXPECT_GT(t.pops, 500);
    EXPECT_EQ(t.overtakes, 0);
    inversions += t.inversions;
  }
  EXPECT_GT(inversions, 0);
}

// ---------------------------------------------------------------------------
// Flat network: the hierarchy plane stays fully disarmed.
// ---------------------------------------------------------------------------

TEST(FlatNetwork, HierarchyCountersStayZero) {
  sim::Simulator sim;
  Network net(sim, 4, NetworkConfig{});
  EXPECT_FALSE(net.topology_active());
  net.post(msg(0, 2, 10'000, 3));
  net.post(msg(1, 3, 10'000, 0));
  sim.run();
  EXPECT_EQ(net.n_racks(), 0);
  EXPECT_EQ(net.uplink_overtakes(), 0);
  EXPECT_EQ(net.uplink_priority_inversions(), 0);
  EXPECT_EQ(net.tor_uplink_bytes(), 0);
}

}  // namespace
}  // namespace p3::net
