#include "net/network.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "sim/sync.h"
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

Message msg(int src, int dst, Bytes bytes, MsgKind kind = MsgKind::kPushGradient) {
  Message m;
  m.src = src;
  m.dst = dst;
  m.bytes = bytes;
  m.kind = kind;
  return m;
}

TEST(Network, SingleTransferTiming) {
  sim::Simulator sim;
  Network net(sim, 2, test_config(gbps(1), 0.0));
  // 125 MB at 1 Gbps = 1 s TX + 1 s RX (store and forward).
  const TimeS tx_done = net.post(msg(0, 1, 125'000'000));
  EXPECT_DOUBLE_EQ(tx_done, 1.0);
  std::vector<TimeS> arrival;
  sim.spawn([](Network& n, std::vector<TimeS>& out) -> sim::Task {
    (void)co_await n.inbox(1).pop();
    out.push_back(n.simulator().now());
  }(net, arrival));
  sim.run();
  ASSERT_EQ(arrival.size(), 1u);
  EXPECT_DOUBLE_EQ(arrival[0], 2.0);
}

TEST(Network, LatencyAddsToDelivery) {
  sim::Simulator sim;
  Network net(sim, 2, test_config(gbps(8), 0.5));
  net.post(msg(0, 1, 1'000'000'000));  // 1 GB @8 Gbps = 1 s each side
  TimeS arrival = -1;
  sim.spawn([](Network& n, TimeS& out) -> sim::Task {
    (void)co_await n.inbox(1).pop();
    out = n.simulator().now();
  }(net, arrival));
  sim.run();
  EXPECT_DOUBLE_EQ(arrival, 2.5);  // 1 TX + 0.5 latency + 1 RX
}

TEST(Network, TxSerializesFifo) {
  sim::Simulator sim;
  Network net(sim, 3, test_config(gbps(1), 0.0));
  const TimeS t1 = net.post(msg(0, 1, 125'000'000));
  const TimeS t2 = net.post(msg(0, 2, 125'000'000));
  EXPECT_DOUBLE_EQ(t1, 1.0);
  EXPECT_DOUBLE_EQ(t2, 2.0);  // second message waits for the first
}

TEST(Network, IncastSerializesOnReceiverRx) {
  sim::Simulator sim;
  Network net(sim, 3, test_config(gbps(1), 0.0));
  // Two senders to one receiver: TX in parallel, RX serialized.
  net.post(msg(1, 0, 125'000'000));
  net.post(msg(2, 0, 125'000'000));
  std::vector<TimeS> arrivals;
  sim.spawn([](Network& n, std::vector<TimeS>& out) -> sim::Task {
    for (int i = 0; i < 2; ++i) {
      (void)co_await n.inbox(0).pop();
      out.push_back(n.simulator().now());
    }
  }(net, arrivals));
  sim.run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_DOUBLE_EQ(arrivals[0], 2.0);
  EXPECT_DOUBLE_EQ(arrivals[1], 3.0);  // RX busy until 2.0, then 1 more sec
}

TEST(Network, FullDuplexDoesNotContend) {
  sim::Simulator sim;
  Network net(sim, 2, test_config(gbps(1), 0.0));
  // 0->1 and 1->0 simultaneously: both complete as if alone.
  net.post(msg(0, 1, 125'000'000));
  net.post(msg(1, 0, 125'000'000));
  std::vector<TimeS> arrivals(2, -1.0);
  for (int node = 0; node < 2; ++node) {
    sim.spawn([](Network& n, std::vector<TimeS>& out, int nd) -> sim::Task {
      (void)co_await n.inbox(nd).pop();
      out[static_cast<std::size_t>(nd)] = n.simulator().now();
    }(net, arrivals, node));
  }
  sim.run();
  EXPECT_DOUBLE_EQ(arrivals[0], 2.0);
  EXPECT_DOUBLE_EQ(arrivals[1], 2.0);
}

TEST(Network, LoopbackBypassesNic) {
  sim::Simulator sim;
  Network net(sim, 2, test_config(gbps(1), 10.0));  // huge latency
  net.post(msg(0, 0, 125'000'000));
  TimeS arrival = -1;
  sim.spawn([](Network& n, TimeS& out) -> sim::Task {
    (void)co_await n.inbox(0).pop();
    out = n.simulator().now();
  }(net, arrival));
  sim.run();
  // 125 MB over 400 Gbps loopback = 2.5 ms; NIC latency not applied.
  EXPECT_NEAR(arrival, 0.0025, 1e-9);
  // NIC stays free.
  EXPECT_DOUBLE_EQ(net.tx_free_at(0), sim.now());
}

TEST(Network, PerNodeRateThrottling) {
  sim::Simulator sim;
  Network net(sim, 2, test_config(gbps(10), 0.0));
  net.set_node_rate(0, gbps(1));  // tc qdisc on node 0 only
  EXPECT_DOUBLE_EQ(net.node_rate(0), gbps(1));
  EXPECT_DOUBLE_EQ(net.node_rate(1), gbps(10));
  const TimeS tx_done = net.post(msg(0, 1, 125'000'000));
  EXPECT_DOUBLE_EQ(tx_done, 1.0);  // throttled TX
}

TEST(Network, SetNodeRateMidTransferHonorsReservations) {
  // Mid-experiment `tc` throttling: a rate change applies to messages
  // posted afterwards, but channel time already reserved by an in-flight
  // transfer is honored — the new transfer queues behind it.
  sim::Simulator sim;
  Network net(sim, 2, test_config(gbps(10), 0.0));
  // In flight at 10 Gbps: TX [0, 0.1], RX [0.1, 0.2].
  const TimeS first_tx = net.post(msg(0, 1, 125'000'000));
  EXPECT_DOUBLE_EQ(first_tx, 0.1);
  net.set_node_rate(0, gbps(1));  // throttle while the transfer is running
  // The second message starts where the first reservation ends and
  // serializes at the new rate.
  const TimeS second_tx = net.post(msg(0, 1, 125'000'000));
  EXPECT_DOUBLE_EQ(second_tx, 0.1 + 1.0);
  std::vector<TimeS> arrivals;
  sim.spawn([](Network& n, std::vector<TimeS>& out) -> sim::Task {
    for (int i = 0; i < 2; ++i) {
      (void)co_await n.inbox(1).pop();
      out.push_back(n.simulator().now());
    }
  }(net, arrivals));
  sim.run();
  ASSERT_EQ(arrivals.size(), 2u);
  // First delivery is unchanged by the throttle (RX rate untouched)...
  EXPECT_DOUBLE_EQ(arrivals[0], 0.2);
  // ...second RX starts after its slow TX and runs at node 1's RX rate.
  EXPECT_DOUBLE_EQ(arrivals[1], 1.2);
}

// --- per-NIC delivery streams ---

struct Arrival {
  TimeS at;
  int src;
  bool operator==(const Arrival&) const = default;
};

/// Pops `count` messages from `node`'s inbox, recording when and from whom.
sim::Task collect(Network& net, int node, int count,
                  std::vector<Arrival>& out) {
  for (int i = 0; i < count; ++i) {
    const Message m = *co_await net.inbox(node).pop();
    out.push_back({net.simulator().now(), m.src});
  }
}

TEST(Network, IncastAndLoopbackDeliverAtTheirReservedSlots) {
  // Three senders and one loopback message into node 0. TX runs in parallel
  // until 1 s, then node 0's RX serializes the incast: deliveries at 2, 3
  // and 4 s. Each delivery reserved its slot when it was posted, so at each
  // of those times it runs after the marker scheduled before the posts and
  // before the marker scheduled after them.
  sim::Simulator sim;
  Network net(sim, 4, test_config(gbps(1), 0.0));
  std::vector<std::int64_t> before;
  std::vector<std::int64_t> after;
  for (const TimeS t : {2.0, 3.0, 4.0}) {
    sim.schedule_at(t, [&] { before.push_back(net.messages_delivered()); });
  }
  for (int src = 1; src <= 3; ++src) net.post(msg(src, 0, 125'000'000));
  net.post(msg(0, 0, 125'000'000));
  for (const TimeS t : {2.0, 3.0, 4.0}) {
    sim.schedule_at(t, [&] { after.push_back(net.messages_delivered()); });
  }
  // Six markers plus one head per stream: the queued RX deliveries wait in
  // their stream, not in the event heap.
  EXPECT_EQ(sim.queued(), 8u);
  std::vector<Arrival> arrivals;
  sim.spawn(collect(net, 0, 4, arrivals));
  sim.run();
  ASSERT_EQ(arrivals.size(), 4u);
  EXPECT_EQ(arrivals[0].src, 0);
  EXPECT_NEAR(arrivals[0].at, 0.0025, 1e-12);  // 125 MB over 400 Gbps
  EXPECT_EQ((std::vector<Arrival>(arrivals.begin() + 1, arrivals.end())),
            (std::vector<Arrival>{{2.0, 1}, {3.0, 2}, {4.0, 3}}));
  EXPECT_EQ(before, (std::vector<std::int64_t>{1, 2, 3}));
  EXPECT_EQ(after, (std::vector<std::int64_t>{2, 3, 4}));
  // Markers, deliveries and consumer wakeups: one event each.
  EXPECT_EQ(sim.events_executed(), 6u + 4u + 4u);
}

TEST(Network, DeliveryTimeRoundsLikeScheduleAt) {
  // A delivery runs at now + (rx_end - now), the time a per-message
  // schedule_at(rx_end) gives it. For these inputs that differs from rx_end
  // in the last bit, so the stream must keep the rounded value.
  sim::Simulator sim;
  Network net(sim, 2, test_config(gbps(1), 0.0));
  const Bytes bytes = 3'000'000;
  TimeS rx_end = 0.0;
  TimeS want = 0.0;
  sim.schedule(13 * 0.0007, [&] {
    const TimeS now = sim.now();
    rx_end = net.post(msg(0, 1, bytes)) + transfer_time(bytes, gbps(1));
    want = now + (rx_end - now);
  });
  std::vector<Arrival> arrivals;
  sim.spawn(collect(net, 1, 1, arrivals));
  sim.run();
  ASSERT_NE(want, rx_end);  // the inputs do exercise the rounding
  ASSERT_EQ(arrivals.size(), 1u);
  EXPECT_EQ(arrivals[0].at, want);
}

TEST(Network, RxRateChangeMidStreamKeepsDeliveryOrder) {
  sim::Simulator sim;
  Network net(sim, 4, test_config(gbps(1), 0.0));
  net.post(msg(1, 0, 125'000'000));     // RX [1, 2]
  net.set_node_rate(0, gbps(1), gbps(0.5));
  net.post(msg(2, 0, 125'000'000));     // RX [2, 4] at the halved rate
  sim.schedule(1.5, [&] {
    // Two deliveries are still queued in node 0's stream.
    net.set_node_rate(0, gbps(1), gbps(2));
    net.post(msg(3, 0, 125'000'000));   // TX [1.5, 2.5], RX [4, 4.5]
  });
  std::vector<Arrival> arrivals;
  sim.spawn(collect(net, 0, 3, arrivals));
  sim.run();
  EXPECT_EQ(arrivals, (std::vector<Arrival>{{2.0, 1}, {4.0, 2}, {4.5, 3}}));
}

TEST(Network, RxFaultDropsLeaveNoGapInTheStream) {
  // Node 0 is down during [3.5, 3.6) and node 3 is cut off during
  // [2.5, 2.6). Both drops happen in the RX window, so they reserve no RX
  // time and no stream slot; the transfers behind them are neither delayed
  // nor stalled.
  FaultPlan plan;
  plan.crashes.push_back({0, 3.5, 0.1});
  NetPartition cut;
  cut.side_a = {3};
  cut.side_b = {0, 1, 2};
  cut.start = 2.5;
  cut.heal = 2.6;
  plan.partitions.push_back(cut);
  FaultInjector faults(plan);
  sim::Simulator sim;
  Network net(sim, 4, test_config(gbps(1), 0.0));
  net.attach_faults(&faults);
  net.post(msg(1, 0, 125'000'000));  // RX [1, 2]: delivered
  net.post(msg(2, 0, 250'000'000));  // RX [2, 4]: receiver goes down
  net.post(msg(3, 0, 125'000'000));  // RX [2, 3]: cut mid-transfer
  net.post(msg(1, 0, 125'000'000));  // TX [1, 2], RX [2, 3]: delivered
  std::vector<Arrival> arrivals;
  sim.spawn(collect(net, 0, 2, arrivals));
  sim.run();
  EXPECT_EQ(arrivals, (std::vector<Arrival>{{2.0, 1}, {3.0, 1}}));
  EXPECT_EQ(net.messages_dropped(), 2);
  EXPECT_EQ(net.messages_posted(),
            net.messages_delivered() + net.messages_dropped());
  EXPECT_TRUE(sim.idle());
}

TEST(Network, BlockingSendResumesAtTxCompletion) {
  sim::Simulator sim;
  Network net(sim, 2, test_config(gbps(1), 0.0));
  std::vector<TimeS> send_returns;
  sim.spawn([](Network& n, std::vector<TimeS>& out) -> sim::Task {
    for (int i = 0; i < 3; ++i) {
      co_await n.send(msg(0, 1, 125'000'000));
      out.push_back(n.simulator().now());
    }
  }(net, send_returns));
  sim.run();
  // Blocking sends: each returns when its TX finishes, i.e. paced at 1 s.
  EXPECT_EQ(send_returns, (std::vector<TimeS>{1.0, 2.0, 3.0}));
}

TEST(Network, CountsAndConservation) {
  sim::Simulator sim;
  Network net(sim, 4, test_config());
  for (int i = 1; i < 4; ++i) net.post(msg(0, i, 1000));
  EXPECT_EQ(net.messages_posted(), 3);
  EXPECT_EQ(net.bytes_posted(), 3000);
  sim.run();
  EXPECT_EQ(net.messages_delivered(), 3);
}

TEST(Network, InvalidMessagesThrow) {
  sim::Simulator sim;
  Network net(sim, 2, test_config());
  EXPECT_THROW(net.post(msg(0, 5, 100)), std::out_of_range);
  EXPECT_THROW(net.post(msg(-1, 1, 100)), std::out_of_range);
  EXPECT_THROW(net.post(msg(0, 1, 0)), std::invalid_argument);
}

TEST(Network, MonitorRecordsBothDirections) {
  sim::Simulator sim;
  Network net(sim, 2, test_config(gbps(1), 0.0));
  UtilizationMonitor mon(2, 0.010);
  net.attach_monitor(&mon);
  net.post(msg(0, 1, 125'000'000));  // 1 s TX, 1 s RX
  sim.run();
  EXPECT_NEAR(mon.total_bytes(0, Direction::kOut), 125e6, 1.0);
  EXPECT_NEAR(mon.total_bytes(1, Direction::kIn), 125e6, 1.0);
  EXPECT_NEAR(mon.total_bytes(0, Direction::kIn), 0.0, 1e-9);
  // Rate during the busy second should be ~1 Gbps.
  EXPECT_NEAR(mon.bin_rate(0, Direction::kOut, 50), gbps(1), gbps(0.01));
}

TEST(Network, TimelineRecordsSpans) {
  sim::Simulator sim;
  Network net(sim, 2, test_config(gbps(1), 0.0));
  trace::Timeline tl;
  net.attach_tracer(&tl.tracer());
  Message m = msg(0, 1, 125'000'000);
  m.layer = 2;
  net.post(m);
  sim.run();
  auto tx = tl.lane_spans("n0.tx");
  ASSERT_EQ(tx.size(), 1u);
  EXPECT_DOUBLE_EQ(tx[0].start, 0.0);
  EXPECT_DOUBLE_EQ(tx[0].end, 1.0);
  EXPECT_EQ(tx[0].label, "gL2");
  auto rx = tl.lane_spans("n1.rx");
  ASSERT_EQ(rx.size(), 1u);
  EXPECT_DOUBLE_EQ(rx[0].start, 1.0);
  EXPECT_DOUBLE_EQ(rx[0].end, 2.0);
}

TEST(MessageLabel, CoversAllKinds) {
  Message m;
  m.layer = 1;
  m.kind = MsgKind::kPushGradient;
  EXPECT_EQ(message_label(m), "gL1");
  m.kind = MsgKind::kNotify;
  EXPECT_EQ(message_label(m), "nL1");
  m.kind = MsgKind::kPullRequest;
  EXPECT_EQ(message_label(m), "qL1");
  m.kind = MsgKind::kParams;
  EXPECT_EQ(message_label(m), "pL1");
}

// --- message handles: the pool outlives every handle --------------------

TEST(MessageHandles, ReadDeliveredMessagesInPlace) {
  sim::Simulator sim;
  Network net(sim, 2, test_config(gbps(1), 0.0));
  Message m = msg(0, 1, 1000);
  m.slice = 7;
  m.iteration = 3;
  net.post(m);
  sim.run();
  auto h = net.inbox(1).try_pop();
  ASSERT_TRUE(h.has_value());
  EXPECT_EQ((*h)->slice, 7);
  EXPECT_EQ((**h).iteration, 3);
  EXPECT_EQ(net.pool_in_use(), 1u);  // the slot stays until the handle dies
  MessageHandle moved = std::move(*h);
  EXPECT_FALSE(*h);
  EXPECT_EQ(net.pool_in_use(), 1u);
  moved.reset();
  EXPECT_FALSE(moved);
  EXPECT_EQ(net.pool_in_use(), 0u);
}

TEST(MessageHandles, ParkedMessagesHoldASlotWithoutTouchingTheWire) {
  sim::Simulator sim;
  Network net(sim, 2, test_config());
  Message m;
  m.kind = MsgKind::kRecheck;
  {
    const MessageHandle h = net.park(m);
    EXPECT_EQ(h->kind, MsgKind::kRecheck);
    EXPECT_EQ(net.pool_in_use(), 1u);
  }
  EXPECT_EQ(net.pool_in_use(), 0u);
  EXPECT_EQ(net.messages_posted(), 0);
  EXPECT_TRUE(sim.idle());
}

TEST(MessageHandles, NetworkDiesWithMessagesInFlightAndInInboxes) {
  // Some messages are delivered into inboxes (one of them already reserved
  // for a woken consumer), others are still on the wire; a second consumer
  // is suspended on an empty inbox. Destroying the network first and the
  // simulator after must release every slot without touching freed memory
  // (the sanitizer build checks this).
  sim::Simulator sim;
  auto net = std::make_unique<Network>(sim, 3, test_config(gbps(1), 0.0));
  int received = 0;
  sim.spawn([](Network& n, int& count) -> sim::Task {
    for (;;) {
      (void)co_await n.inbox(1).pop();  // the handle dies before the sleep
      ++count;
      co_await n.simulator().sleep(10.0);
    }
  }(*net, received));
  sim.spawn([](Network& n) -> sim::Task {
    (void)co_await n.inbox(2).pop();
  }(*net));
  for (int i = 0; i < 6; ++i) net->post(msg(0, 1, 125'000));  // 1 ms each
  net->post(msg(1, 1, 100));                                   // loopback
  sim.run_until(0.0045);
  EXPECT_GT(net->inbox(1).size(), 0u);
  EXPECT_LT(net->messages_delivered(), net->messages_posted());
  EXPECT_EQ(received, 1);
  net.reset();
}

TEST(MessageHandles, PoolStaysBoundedOverManyRoundTrips) {
  // Ping-pong between two nodes: each side reads the message in place and
  // answers while still holding it. Slots recycle, so the pool never grows
  // past the few messages alive at once.
  sim::Simulator sim;
  Network net(sim, 2, test_config(gbps(10), us(5)));
  constexpr int kRoundTrips = 10'000;
  std::size_t peak_in_use = 0;
  auto player = [](Network& n, int self, int rounds,
                   std::size_t& peak) -> sim::Task {
    for (int i = 0; i < rounds; ++i) {
      const MessageHandle h = co_await n.inbox(self).pop();
      peak = std::max(peak, n.pool_in_use());
      Message reply = *h;
      reply.src = self;
      reply.dst = 1 - self;
      reply.iteration = h->iteration + 1;
      co_await n.send(reply);
    }
  };
  sim.spawn(player(net, 0, kRoundTrips, peak_in_use));
  sim.spawn(player(net, 1, kRoundTrips, peak_in_use));
  Message serve = msg(0, 1, 1500);
  serve.iteration = 0;
  net.post(serve);
  sim.run();
  EXPECT_EQ(net.messages_delivered(), 2 * kRoundTrips + 1);
  EXPECT_LE(net.pool_slots(), 3u);
  EXPECT_LE(peak_in_use, 2u);
  auto last = net.inbox(1).try_pop();  // the final reply nobody answered
  ASSERT_TRUE(last.has_value());
  EXPECT_EQ((*last)->iteration, 2 * kRoundTrips);
  last.reset();
  EXPECT_EQ(net.pool_in_use(), 0u);
}

}  // namespace
}  // namespace p3::net
