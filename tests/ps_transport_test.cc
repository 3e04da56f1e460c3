// The reliable transport (ps/transport.h) in parts and inside a cluster:
// the timer queue against plain simulator events, the dedup window against
// a hash-set reference, the pending ring against an ordered map, and
// cluster runs that pin what the transport decides (retransmissions, acks,
// suppressions, the order a crash or a drain drops pending sends) and how
// deep the event heap gets.
#include "ps/transport.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/rng.h"
#include "model/zoo.h"
#include "ps/cluster.h"

namespace p3::ps {
namespace {

using core::SyncMethod;

// ---------------------------------------------------------------------------
// TimerQueue against plain Simulator::schedule.
// ---------------------------------------------------------------------------

/// A seeded script of "driver" events that arm timers and kill ids, and of
/// timers whose firings re-arm themselves, arm new (often earlier) timers
/// or kill other ids. Delays are multiples of 0.25 s and drivers run at
/// multiples of 0.5 s, so timers tie with each other and with drivers all
/// the time. Liveness only ever goes away, as the queue requires. The trace
/// records every driver and every live firing with its time; a timer that
/// ran out of its slot, late, early or dead, changes the trace or the
/// random draws after it.
class TimerScript {
 public:
  explicit TimerScript(std::uint64_t seed) : rng_(seed) {}

  sim::Simulator sim;
  std::set<std::int64_t> live;
  std::vector<std::string> trace;
  /// Arms a timer for `id`: plain events or a TimerQueue.
  std::function<void(std::int64_t id, TimeS dt)> arm;
  int rearms = 0;

  void start(int drivers) {
    for (int k = 0; k < drivers; ++k) {
      const TimeS at = 0.5 * static_cast<double>(rng_.uniform_index(40));
      sim.schedule(at, [this, k] { drive(k); });
    }
  }

  void fire(std::int64_t id) {
    note("t", id);
    switch (rng_.uniform_index(4)) {
      case 0:
        ++rearms;
        arm(id, delay());  // re-armed from inside its own firing
        break;
      case 1:
        add_timer(0.25);  // likely ahead of the pending wakeup
        break;
      case 2:
        kill_one();
        live.erase(id);
        break;
      default:
        live.erase(id);
        break;
    }
  }

 private:
  TimeS delay() {
    return 0.25 * static_cast<double>(1 + rng_.uniform_index(16));
  }

  void note(const char* what, std::int64_t n) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%s%lld@%a", what,
                  static_cast<long long>(n), sim.now());
    trace.emplace_back(buf);
  }

  void add_timer(TimeS dt) {
    const std::int64_t id = next_id_++;
    live.insert(id);
    arm(id, dt);
  }

  void kill_one() {
    if (live.empty()) return;
    auto it = live.begin();
    std::advance(it, static_cast<long>(rng_.uniform_index(live.size())));
    live.erase(it);
  }

  void drive(int k) {
    note("d", k);
    for (auto n = rng_.uniform_index(4); n > 0; --n) add_timer(delay());
    for (auto n = rng_.uniform_index(3); n > 0; --n) kill_one();
  }

  Rng rng_;
  std::int64_t next_id_ = 0;
};

TEST(TimerQueue, FiresExactlyWherePlainEventsWould) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    TimerScript plain(seed);
    std::int64_t noops = 0;
    plain.arm = [&plain, &noops](std::int64_t id, TimeS dt) {
      plain.sim.schedule(dt, [&plain, &noops, id] {
        if (plain.live.count(id) > 0) {
          plain.fire(id);
        } else {
          ++noops;
        }
      });
    };
    plain.start(30);
    plain.sim.run();

    TimerScript queued(seed);
    TimerQueue timers(
        queued.sim,
        [&queued](std::int64_t id) { return queued.live.count(id) > 0; },
        [&queued](std::int64_t id) { queued.fire(id); });
    queued.arm = [&timers](std::int64_t id, TimeS dt) { timers.arm(id, dt); };
    queued.start(30);
    queued.sim.run();

    ASSERT_EQ(queued.trace, plain.trace);
    EXPECT_GT(plain.rearms, 0);
    EXPECT_GT(noops, 0);
    // Only the dead timers' events go, and each wakeup that finds its
    // timer dead comes back as one.
    EXPECT_EQ(queued.sim.events_executed(),
              plain.sim.events_executed() - static_cast<std::uint64_t>(noops) +
                  static_cast<std::uint64_t>(timers.idle_wakeups()));
    EXPECT_LT(timers.idle_wakeups(), noops);
    EXPECT_EQ(timers.size(), 0u);
  }
}

TEST(TimerQueue, TimerArmedAheadOfThePendingWakeupRunsInItsOwnSlot) {
  sim::Simulator sim;
  std::vector<std::string> order;
  std::set<std::int64_t> live = {1, 2};
  TimerQueue timers(
      sim, [&](std::int64_t id) { return live.count(id) > 0; },
      [&](std::int64_t id) { order.push_back(id == 1 ? "t1" : "t2"); });
  timers.arm(1, 2.0);  // holds the wakeup
  sim.schedule(1.0, [&] { order.push_back("before"); });
  timers.arm(2, 1.0);  // ahead of it: needs a wakeup of its own
  sim.schedule(1.0, [&] { order.push_back("after"); });
  sim.schedule(2.0, [&] { order.push_back("last"); });
  sim.run();
  EXPECT_EQ(order, (std::vector<std::string>{"before", "t2", "after", "t1",
                                             "last"}));
  EXPECT_EQ(timers.idle_wakeups(), 0);
}

TEST(TimerQueue, AckedTimersBehindTheFrontNeverRun) {
  sim::Simulator sim;
  std::set<std::int64_t> live = {1, 2, 3};
  std::vector<std::int64_t> fired;
  TimerQueue timers(
      sim, [&](std::int64_t id) { return live.count(id) > 0; },
      [&](std::int64_t id) { fired.push_back(id); });
  timers.arm(1, 1.0);
  timers.arm(2, 2.0);
  timers.arm(3, 3.0);
  sim.schedule(0.5, [&] {
    live.erase(2);
    live.erase(3);
  });
  sim.run();
  EXPECT_EQ(fired, (std::vector<std::int64_t>{1}));
  EXPECT_EQ(sim.events_executed(), 2u);  // the killer and timer 1
  EXPECT_DOUBLE_EQ(sim.now(), 1.0);
  EXPECT_EQ(timers.size(), 0u);
}

TEST(TimerQueue, AckedFrontCostsOneIdleWakeup) {
  sim::Simulator sim;
  std::set<std::int64_t> live = {1, 2};
  std::vector<std::int64_t> fired;
  TimerQueue timers(
      sim, [&](std::int64_t id) { return live.count(id) > 0; },
      [&](std::int64_t id) { fired.push_back(id); });
  timers.arm(1, 1.0);
  timers.arm(2, 2.0);
  sim.schedule(0.5, [&] { live.erase(1); });  // its wakeup is already queued
  sim.run();
  EXPECT_EQ(fired, (std::vector<std::int64_t>{2}));
  EXPECT_EQ(timers.idle_wakeups(), 1);
  EXPECT_EQ(sim.events_executed(), 3u);
}

// ---------------------------------------------------------------------------
// DedupWindow against the hash-set rule it replaces.
// ---------------------------------------------------------------------------

/// The dedup rule as a hash set: suppress below the floor or when seen;
/// once the set holds 4096 ids, raise the floor to the oldest pending id
/// and drop everything below it; a crash clears the set, not the floor.
struct DedupReference {
  std::unordered_set<std::int64_t> seen;
  std::int64_t floor = 0;

  bool accept(std::int64_t id, std::int64_t oldest_pending) {
    if (id < floor) return false;
    if (!seen.insert(id).second) return false;
    if (seen.size() >= 4096 && oldest_pending > floor) {
      floor = oldest_pending;
      std::erase_if(seen, [&](std::int64_t s) { return s < floor; });
    }
    return true;
  }
};

TEST(DedupWindow, MatchesAHashSetReference) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    DedupWindow window;
    DedupReference ref;
    std::int64_t newest = 0;
    std::int64_t oldest = 0;  // oldest pending id: never falls
    int pinned_for = 0;
    std::int64_t suppressed = 0;
    for (int step = 0; step < 150'000; ++step) {
      newest += static_cast<std::int64_t>(rng.uniform_index(4));
      if (pinned_for > 0) {
        --pinned_for;  // a send retransmitting for a long time
      } else if (rng.uniform_index(2000) == 0) {
        pinned_for = 20'000;
      } else if (oldest < newest) {
        const auto gap = static_cast<std::uint64_t>(newest - oldest);
        oldest += static_cast<std::int64_t>(rng.uniform_index(gap / 8 + 2));
        oldest = std::min(oldest, newest);
      }
      if (rng.uniform_index(5000) == 0) {  // the node crashes
        window.clear();
        ref.seen.clear();
      }
      // Mostly fresh ids near the newest, some retransmits from further
      // back (below the window and below the floor) and some far jumps.
      std::int64_t id = newest;
      switch (rng.uniform_index(8)) {
        case 0:
          id = newest - static_cast<std::int64_t>(rng.uniform_index(
                            static_cast<std::uint64_t>(newest) + 1));
          break;
        case 1:
          id = newest + static_cast<std::int64_t>(rng.uniform_index(2000));
          break;
        default:
          id = newest - static_cast<std::int64_t>(rng.uniform_index(200));
          break;
      }
      id = std::max<std::int64_t>(id, 0);
      const bool want = ref.accept(id, oldest);
      ASSERT_EQ(window.accept(id, oldest), want) << "id " << id;
      ASSERT_EQ(window.entries(), static_cast<std::int64_t>(ref.seen.size()));
      ASSERT_EQ(window.floor(), ref.floor);
      suppressed += want ? 0 : 1;
    }
    EXPECT_GT(window.floor(), 0);
    EXPECT_GT(suppressed, 0);
  }
}

// ---------------------------------------------------------------------------
// PendingRing against an ordered map.
// ---------------------------------------------------------------------------

TEST(PendingRing, MatchesAnOrderedMapReference) {
  Rng rng(11);
  PendingRing<std::int64_t> ring;
  std::map<std::int64_t, std::int64_t> ref;
  std::int64_t pinned = -1;
  int pinned_for = 0;
  std::size_t widest = 0;
  for (int step = 0; step < 300'000; ++step) {
    const auto lo = ring.oldest();
    const auto hi = ring.next_id();
    switch (rng.uniform_index(5)) {
      case 0:
      case 1: {
        const std::int64_t value = 7 * step;
        ASSERT_EQ(ring.push(value), hi);
        ref[hi] = value;
        if (pinned < 0 && rng.uniform_index(1000) == 0) {
          pinned = hi;  // this one stays pending for a long time
          pinned_for = 40'000;
        }
        break;
      }
      case 2:
      case 3: {
        const std::int64_t id =
            lo - 2 + static_cast<std::int64_t>(rng.uniform_index(
                         static_cast<std::uint64_t>(hi - lo) + 4));
        if (id == pinned) break;
        const auto got = ring.take(id);
        const auto it = ref.find(id);
        ASSERT_EQ(got.has_value(), it != ref.end()) << "id " << id;
        if (got) {
          ASSERT_EQ(*got, it->second);
          ref.erase(it);
        }
        break;
      }
      default: {
        const std::int64_t id =
            lo - 2 + static_cast<std::int64_t>(rng.uniform_index(
                         static_cast<std::uint64_t>(hi - lo) + 4));
        const std::int64_t* got = ring.find(id);
        const auto it = ref.find(id);
        ASSERT_EQ(got != nullptr, it != ref.end()) << "id " << id;
        if (got != nullptr) {
          ASSERT_EQ(*got, it->second);
        }
        break;
      }
    }
    if (pinned >= 0 && --pinned_for == 0) {
      ASSERT_TRUE(ring.take(pinned).has_value());
      ref.erase(pinned);
      pinned = -1;
    }
    ASSERT_EQ(ring.size(), ref.size());
    ASSERT_EQ(ring.oldest(), ref.empty() ? ring.next_id() : ref.begin()->first);
    widest = std::max(widest,
                      static_cast<std::size_t>(ring.next_id() - ring.oldest()));
  }
  EXPECT_GT(widest, 10'000u);  // the pinned ids held the ring wide open
}

// ---------------------------------------------------------------------------
// Inside a cluster.
// ---------------------------------------------------------------------------

model::Workload toy(TimeS compute) {
  model::Workload w;
  w.model = model::toy_uniform(4, 120'000);
  w.batch_per_worker = 4;
  w.iter_compute_time = compute;
  return w;
}

struct Outcome {
  double throughput = 0;
  double mean_iteration_time = 0;
  double total_time = 0;
  double mean_stall_time = 0;
  Bytes goodput_bytes = 0;
  Bytes wire_bytes = 0;
  std::int64_t retransmits = 0;
  std::int64_t timeouts_fired = 0;
  std::int64_t acks_sent = 0;
  std::int64_t duplicates_suppressed = 0;
};

Outcome run_and_drain(const ClusterConfig& cfg, TimeS compute, int measured) {
  Cluster cluster(toy(compute), cfg);
  const RunResult r = cluster.run(1, measured);
  cluster.drain();
  EXPECT_EQ(cluster.reliable_in_flight(), 0);
  const net::Network& net = cluster.network();
  EXPECT_EQ(net.messages_posted(),
            net.messages_delivered() + net.messages_dropped());
  return {r.throughput,         r.mean_iteration_time,
          r.total_time,         r.mean_stall_time,
          r.goodput_bytes,      r.wire_bytes,
          r.retransmits,        r.timeouts_fired,
          cluster.acks_sent(),  r.duplicates_suppressed};
}

std::string describe(const Outcome& o) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{%a, %a, %a, %a, %lld, %lld, %lld, %lld, %lld, %lld}",
                o.throughput, o.mean_iteration_time, o.total_time,
                o.mean_stall_time, static_cast<long long>(o.goodput_bytes),
                static_cast<long long>(o.wire_bytes),
                static_cast<long long>(o.retransmits),
                static_cast<long long>(o.timeouts_fired),
                static_cast<long long>(o.acks_sent),
                static_cast<long long>(o.duplicates_suppressed));
  return buf;
}

void expect_outcome(const Outcome& got, const Outcome& want) {
  SCOPED_TRACE("measured " + describe(got));
  EXPECT_EQ(got.throughput, want.throughput);
  EXPECT_EQ(got.mean_iteration_time, want.mean_iteration_time);
  EXPECT_EQ(got.total_time, want.total_time);
  EXPECT_EQ(got.mean_stall_time, want.mean_stall_time);
  EXPECT_EQ(got.goodput_bytes, want.goodput_bytes);
  EXPECT_EQ(got.wire_bytes, want.wire_bytes);
  EXPECT_EQ(got.retransmits, want.retransmits);
  EXPECT_EQ(got.timeouts_fired, want.timeouts_fired);
  EXPECT_EQ(got.acks_sent, want.acks_sent);
  EXPECT_EQ(got.duplicates_suppressed, want.duplicates_suppressed);
}

/// Four workers, P3, 5 % loss, jittered timers capped at 0.4 s: deadlines
/// out of arm order, backoff and equal-time ties. The pinned values are the
/// ones the transport gave while every timer was its own heap event.
TEST(TransportCluster, JitteredLossKeepsEveryRetransmitDecision) {
  ClusterConfig cfg;
  cfg.seed = 42;
  cfg.faults.seed = 42;
  cfg.n_workers = 4;
  cfg.method = SyncMethod::kP3;
  cfg.bandwidth = gbps(1);
  cfg.latency = us(25);
  cfg.slice_params = 50'000;
  cfg.faults.drop_prob = 0.05;
  cfg.rto_jitter = 0.25;
  cfg.max_rto = 0.4;
  expect_outcome(run_and_drain(cfg, 0.010, 4),
                 {0x1.73cbeb03affafp+7, 0x1.5982e523ed306p-4,
                  0x1.6ac6e2100b91ap-2, 0x1.34c69bf49457p-4, 64785792,
                  70208128, 24, 24, 375, 14});
}

/// CostPin.RackChaos's shape: two racks of four behind a 4:1 ToR, rack
/// aggregation, R = 2 leased replicas, 0.2 % loss and a healing cut, under
/// Baseline and P3. Its heap is sampled every simulated millisecond. With a
/// timer on the heap per tracked message, P3's peaked at 2,929 entries;
/// with only the earliest live timer there, at 636 (Baseline) and 386 (P3),
/// most of them hops in flight through the fabric. With only each fabric
/// link's head there as well, the peaks are 62 and 55.
TEST(TransportCluster, RackChaosHeapHoldsOnlyLiveWork) {
  for (const SyncMethod method : {SyncMethod::kBaseline, SyncMethod::kP3}) {
    SCOPED_TRACE(core::sync_method_name(method));
    ClusterConfig cfg;
    cfg.seed = 42;
    cfg.faults.seed = 42;
    cfg.n_workers = 8;
    cfg.method = method;
    cfg.bandwidth = gbps(10);
    cfg.rx_bandwidth = gbps(100);
    net::Topology topo;
    topo.racks = {{0, 1, 2, 3}, {4, 5, 6, 7}};
    topo.oversubscription = 4.0;
    cfg.topology = topo;
    cfg.rack_aggregation = true;
    cfg.replication = 2;
    cfg.checkpoint_period = 0.5;
    cfg.max_sim_time = 12.0;
    cfg.faults.lease_duration = 0.4;
    cfg.faults.drop_prob = 0.002;
    net::NetPartition cut;
    cut.side_a = {3};
    cut.side_b = {0, 1, 2, 4, 5, 6, 7};
    cut.start = 0.1;
    cut.heal = 0.3;
    cfg.faults.partitions.push_back(cut);
    Cluster cluster(model::workload_resnet50(), cfg);

    sim::Simulator& sim = cluster.simulator();
    std::size_t peak = 0;
    bool done = false;
    std::function<void()> probe = [&] {
      peak = std::max(peak, sim.queued());
      if (!done) sim.schedule(0.001, probe);
    };
    sim.schedule(0.0, probe);
    const RunResult r = cluster.run(1, 4);
    done = true;
    cluster.drain();
    EXPECT_GT(r.retransmits, 0);
    EXPECT_GT(peak, 0u);
    EXPECT_LT(peak, 150u);
  }
}

/// The crash and drain sweeps drop pending sends oldest first, and each
/// dropped kReplicate copy releases its share of a commit barrier. These
/// are the smallest runs found whose outputs depend on that order; they
/// are pinned with it.
ClusterConfig sweep_config(SyncMethod method) {
  ClusterConfig cfg;
  cfg.n_workers = 4;
  cfg.method = method;
  cfg.bandwidth = gbps(1.0);
  cfg.latency = us(25);
  cfg.slice_params = 50'000;
  cfg.replication = 2;
  cfg.heartbeat_period = ms(5);
  cfg.suspicion_timeout = ms(25);
  cfg.max_sim_time = 60.0;
  return cfg;
}

TEST(TransportCluster, PermanentCrashDropsPendingSendsOldestFirst) {
  ClusterConfig cfg = sweep_config(SyncMethod::kDSSP);
  cfg.staleness.fixed_s = 1;
  cfg.faults.crashes.push_back({1, 0.06, -1.0});
  expect_outcome(run_and_drain(cfg, 0.020, 2),
                 {0x1.ead9d26ca62c3p+8, 0x1.c6b0bb9c4af7p-6,
                  0x1.3b92484d01462p-4, 0x1.c61b794c8a4d9p-8, 33533184,
                  35514752, 0, 0, 168, 0});
}

TEST(TransportCluster, DrainDropsPendingSendsOldestFirst) {
  ClusterConfig cfg = sweep_config(SyncMethod::kP3);
  cfg.faults.leaves.push_back({1, 0.06});
  expect_outcome(run_and_drain(cfg, 0.020, 2),
                 {0x1.1645771bbe999p+8, 0x1.9596ba66680d7p-5,
                  0x1.ee1081b046b16p-4, 0x1.db27348a8f967p-6, 39136128,
                  41673984, 0, 0, 29, 1});
}

}  // namespace
}  // namespace p3::ps
