#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

namespace p3::sim {
namespace {

TEST(Simulator, StartsAtTimeZero) {
  Simulator sim;
  EXPECT_DOUBLE_EQ(sim.now(), 0.0);
  EXPECT_TRUE(sim.idle());
}

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(3.0, [&] { order.push_back(3); });
  sim.schedule(1.0, [&] { order.push_back(1); });
  sim.schedule(2.0, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
}

TEST(Simulator, TiesRunInSchedulingOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule(1.0, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Simulator, NegativeDelayThrows) {
  Simulator sim;
  EXPECT_THROW(sim.schedule(-0.1, [] {}), std::invalid_argument);
}

// A NaN time would sort after +infinity in the packed event key (and broke
// the (time, seq) heap order outright before it): all three entry points
// reject it, and none of them consumes a slot or an event.
TEST(Simulator, NaNDelayThrows) {
  Simulator sim;
  EXPECT_THROW(sim.schedule(std::nan(""), [] {}), std::invalid_argument);
  EXPECT_TRUE(sim.idle());
}

TEST(Simulator, NaNScheduleAtThrows) {
  Simulator sim;
  sim.schedule(2.0, [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(std::nan(""), [] {}), std::invalid_argument);
  EXPECT_TRUE(sim.idle());
  EXPECT_EQ(sim.now(), 2.0);
}

TEST(Simulator, NaNReserveAtThrows) {
  Simulator sim;
  EXPECT_THROW((void)sim.reserve_at(std::nan("")), std::invalid_argument);
  // The order is untouched: a later reservation still runs in place.
  bool ran = false;
  sim.schedule_reserved(sim.reserve_at(1.0), [&] { ran = true; });
  sim.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(sim.now(), 1.0);
}

TEST(Simulator, InfiniteDelayRunsLast) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(std::numeric_limits<double>::infinity(),
               [&] { order.push_back(2); });
  sim.schedule(1e300, [&] { order.push_back(1); });
  sim.schedule(0.0, [&] { order.push_back(0); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(Simulator, ClearDestroysFramesAndDropsPendingEvents) {
  Simulator sim;
  int ran = 0;
  sim.spawn([](Simulator& s, int& count) -> Task {
    co_await s.sleep(1.0);
    ++count;
  }(sim, ran));
  sim.schedule(0.5, [&] { ++ran; });
  sim.clear();
  EXPECT_TRUE(sim.idle());
  sim.run();
  EXPECT_EQ(ran, 0);
  // The simulator stays usable.
  sim.schedule(1.0, [&] { ++ran; });
  sim.run();
  EXPECT_EQ(ran, 1);
}

TEST(Simulator, ScheduleAtPastClampsToNow) {
  Simulator sim;
  sim.schedule(5.0, [] {});
  sim.run();
  bool ran = false;
  sim.schedule_at(1.0, [&] { ran = true; });  // in the past
  sim.run();
  EXPECT_TRUE(ran);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
}

TEST(Simulator, EventsCanScheduleMoreEvents) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 100) sim.schedule(0.5, recurse);
  };
  sim.schedule(0.5, recurse);
  sim.run();
  EXPECT_EQ(depth, 100);
  EXPECT_DOUBLE_EQ(sim.now(), 50.0);
}

TEST(Simulator, RunUntilStopsAtBoundary) {
  Simulator sim;
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    sim.schedule(static_cast<double>(i), [&] { ++count; });
  }
  sim.run_until(5.0);
  EXPECT_EQ(count, 5);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
  sim.run();
  EXPECT_EQ(count, 10);
}

TEST(Simulator, RunUntilAdvancesClockEvenWithoutEvents) {
  Simulator sim;
  sim.run_until(7.5);
  EXPECT_DOUBLE_EQ(sim.now(), 7.5);
}

TEST(Simulator, RunWhilePredicate) {
  Simulator sim;
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    sim.schedule(static_cast<double>(i), [&] { ++count; });
  }
  EXPECT_TRUE(sim.run_while([&] { return count >= 3; }));
  EXPECT_EQ(count, 3);
  EXPECT_FALSE(sim.run_while([] { return false; }));  // queue drains
  EXPECT_EQ(count, 10);
}

TEST(Simulator, CountsExecutedEvents) {
  Simulator sim;
  for (int i = 0; i < 5; ++i) sim.schedule(1.0, [] {});
  sim.run();
  EXPECT_EQ(sim.events_executed(), 5u);
}

// --- batched same-time dispatch regressions ---

TEST(Simulator, RunUntilRunsTheWholeTieTimeBatchAtTheBoundary) {
  Simulator sim;
  int at_five = 0;
  int after = 0;
  for (int i = 0; i < 4; ++i) sim.schedule(5.0, [&] { ++at_five; });
  sim.schedule(5.0, [&] {
    ++at_five;
    // Zero-delay event scheduled from inside the boundary batch: it is
    // part of time 5.0 and must also run before run_until returns.
    sim.schedule(0.0, [&] { ++at_five; });
  });
  sim.schedule(5.0 + 1e-9, [&] { ++after; });
  sim.run_until(5.0);
  EXPECT_EQ(at_five, 6);
  EXPECT_EQ(after, 0);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
  sim.run();
  EXPECT_EQ(after, 1);
}

TEST(Simulator, CountsEventsAppendedToAnOpenBatch) {
  Simulator sim;
  for (int i = 0; i < 3; ++i) {
    sim.schedule(1.0, [&] { sim.schedule(0.0, [] {}); });
  }
  sim.run();
  EXPECT_EQ(sim.events_executed(), 6u);
}

TEST(Simulator, CountsHeapPushesAndPops) {
  Simulator sim;
  for (int i = 0; i < 3; ++i) {
    sim.schedule(1.0, [&] { sim.schedule(0.0, [] {}); });
  }
  sim.schedule(2.0, [] {});
  EXPECT_EQ(sim.heap_pushes(), 4u);
  EXPECT_EQ(sim.heap_pops(), 0u);
  // Stop after the first event: the second and third, and the zero-delay
  // event the first appended, go back on the heap.
  EXPECT_TRUE(sim.run_while([&] { return sim.events_executed() == 1; }));
  EXPECT_EQ(sim.heap_pushes(), 7u);
  EXPECT_EQ(sim.heap_pops(), 3u);
  // The appended events of a batch never touch the heap.
  sim.run();
  EXPECT_EQ(sim.events_executed(), 7u);
  EXPECT_EQ(sim.heap_pushes(), 7u);
  EXPECT_EQ(sim.heap_pops(), 7u);
}

TEST(Simulator, ZeroDelayChainsPreserveFifoOrderUnderStress) {
  // 10k zero-delay events at the same timestamp, half scheduled up front
  // and half appended from inside the running batch; (time, seq) order
  // means strict FIFO either way.
  Simulator sim;
  std::vector<int> order;
  constexpr int kN = 5000;
  for (int i = 0; i < kN; ++i) {
    sim.schedule(0.0, [&order, &sim, i] {
      order.push_back(i);
      sim.schedule(0.0, [&order, i] { order.push_back(kN + i); });
    });
  }
  sim.run();
  ASSERT_EQ(order.size(), 2u * kN);
  for (int i = 0; i < 2 * kN; ++i) EXPECT_EQ(order[i], i);
  EXPECT_EQ(sim.events_executed(), 2u * kN);
}

TEST(Simulator, ScheduleAtPastDuringDispatchRunsAfterQueuedTies) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(2.0, [&] {
    order.push_back(0);
    sim.schedule_at(1.0, [&] { order.push_back(2); });  // past -> now, FIFO
  });
  sim.schedule(2.0, [&] { order.push_back(1); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(Simulator, ThrowingEventLeavesRemainingBatchRunnable) {
  Simulator sim;
  int ran = 0;
  sim.schedule(1.0, [&] { ++ran; });
  sim.schedule(1.0, [] { throw std::runtime_error("boom"); });
  sim.schedule(1.0, [&] { ++ran; });
  sim.schedule(2.0, [&] { ++ran; });
  EXPECT_THROW(sim.run(), std::runtime_error);
  EXPECT_EQ(ran, 1);       // only the event before the throw ran
  EXPECT_FALSE(sim.idle());
  sim.run();               // the re-queued remainder is still runnable
  EXPECT_EQ(ran, 3);
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);
}

TEST(Simulator, ThrowingEventInsideRunWhileLeavesRemainingBatchRunnable) {
  Simulator sim;
  int ran = 0;
  sim.schedule(1.0, [&] { ++ran; });
  sim.schedule(1.0, [] { throw std::runtime_error("boom"); });
  sim.schedule(1.0, [&] { ++ran; });
  sim.schedule(2.0, [&] { ++ran; });
  EXPECT_THROW(sim.run_while([] { return false; }), std::runtime_error);
  EXPECT_EQ(ran, 1);
  EXPECT_FALSE(sim.idle());
  EXPECT_FALSE(sim.run_while([] { return false; }));  // remainder runs
  EXPECT_EQ(ran, 3);
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);
}

TEST(Simulator, RunWhileStoppingMidBatchKeepsTheRestInOrder) {
  // The predicate fires after the second of four same-time events; the
  // third, the fourth and a zero-delay event appended by the first must stay
  // queued and later run in (time, seq) order.
  Simulator sim;
  std::vector<int> order;
  sim.schedule(1.0, [&] {
    order.push_back(0);
    sim.schedule(0.0, [&] { order.push_back(4); });
  });
  for (int i = 1; i <= 3; ++i) {
    sim.schedule(1.0, [&order, i] { order.push_back(i); });
  }
  sim.schedule(2.0, [&] { order.push_back(5); });
  EXPECT_TRUE(sim.run_while([&] { return order.size() == 2; }));
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
  EXPECT_DOUBLE_EQ(sim.now(), 1.0);
  EXPECT_EQ(sim.queued(), 4u);  // 2, 3, the appended 4, and 5
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(sim.events_executed(), 6u);
}

TEST(Simulator, RunWhileChecksThePredicateBeforeTheFirstEvent) {
  Simulator sim;
  int ran = 0;
  sim.schedule(1.0, [&] { ++ran; });
  EXPECT_TRUE(sim.run_while([] { return true; }));
  EXPECT_EQ(ran, 0);
  EXPECT_EQ(sim.queued(), 1u);
}

// --- reserved sequence numbers ---

TEST(Simulator, ReservedFutureSlotRunsWhereItWasReserved) {
  // Reserved at time 0 between two plain events at t=2, filled in at t=1:
  // it runs between them, as if it had been scheduled at reservation time.
  Simulator sim;
  std::vector<int> order;
  sim.schedule(2.0, [&] { order.push_back(0); });
  const Simulator::Reservation r = sim.reserve_at(2.0);
  sim.schedule(2.0, [&] { order.push_back(2); });
  sim.schedule(1.0, [&] {
    sim.schedule_reserved(r, [&] { order.push_back(1); });
  });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);
  EXPECT_EQ(sim.events_executed(), 4u);
}

TEST(Simulator, ReserveAtComputesTheTimeLikeScheduleAt) {
  Simulator sim;
  sim.schedule(0.1, [] {});
  sim.run();
  const TimeS t = 0.7;
  const Simulator::Reservation r = sim.reserve_at(t);
  TimeS seen = -1.0;
  sim.schedule_at(t, [&] { seen = sim.now(); });
  sim.run();
  EXPECT_EQ(r.time, seen);  // bit-equal: now + (t - now), not plain t
  EXPECT_EQ(sim.reserve_at(0.0).time, sim.now());  // past clamps to now
}

TEST(Simulator, ReserveRunsWhereScheduleWould) {
  // Twin runs from a non-zero clock: an event scheduled dt from now between
  // two others at the same time, and the same event through reserve(dt),
  // filled in halfway there. Each records its clock bit for bit.
  auto stamp = [](TimeS t) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%a", t);
    return std::string(buf);
  };
  auto twin = [&stamp](TimeS dt, bool reserved) {
    Simulator sim;
    std::vector<std::string> order;
    sim.schedule(0.1, [&sim, &order, &stamp, dt, reserved] {
      sim.schedule(dt, [&] { order.push_back("before"); });
      if (reserved) {
        const Simulator::Reservation r = sim.reserve(dt);
        EXPECT_EQ(r.time, sim.now() + dt);
        sim.schedule(dt / 2, [&sim, &order, &stamp, r] {
          sim.schedule_reserved(
              r, [&] { order.push_back("timer@" + stamp(sim.now())); });
        });
      } else {
        sim.schedule(dt,
                     [&] { order.push_back("timer@" + stamp(sim.now())); });
      }
      sim.schedule(dt, [&] { order.push_back("after"); });
    });
    sim.run();
    order.push_back("end@" + stamp(sim.now()));
    return order;
  };
  for (const TimeS dt : {0.7, 0.3, 1e-9, 123.456}) {
    SCOPED_TRACE(stamp(dt));
    const auto plain = twin(dt, false);
    EXPECT_EQ(twin(dt, true), plain);
    ASSERT_EQ(plain.size(), 4u);
    EXPECT_EQ(plain[0], "before");
    EXPECT_EQ(plain[2], "after");
  }
  Simulator sim;
  EXPECT_THROW(sim.reserve(-1.0), std::invalid_argument);
  EXPECT_THROW(sim.reserve(std::nan("")), std::invalid_argument);
}

TEST(Simulator, ReservedSlotsJoinAnOpenBatchAtTheirSeqPosition) {
  // The batch at t=1 opens as [E0, E1, E2], with slot `early` reserved
  // between E0 and E1. E0 appends Z0 (zero delay), then fills `early`. E1
  // reserves `late` at t=1, behind Z0, and appends Z1; E2 fills `late`. Both
  // reserved events must land at their seq positions, not at the batch end.
  Simulator sim;
  std::vector<std::string> order;
  Simulator::Reservation early{};
  Simulator::Reservation late{};
  sim.schedule(1.0, [&] {
    order.push_back("E0");
    sim.schedule(0.0, [&] { order.push_back("Z0"); });
    sim.schedule_reserved(early, [&] { order.push_back("R0"); });
  });
  early = sim.reserve_at(1.0);
  sim.schedule(1.0, [&] {
    order.push_back("E1");
    late = sim.reserve_at(sim.now());
    sim.schedule(0.0, [&] { order.push_back("Z1"); });
  });
  sim.schedule(1.0, [&] {
    order.push_back("E2");
    sim.schedule_reserved(late, [&] { order.push_back("R1"); });
  });
  sim.run();
  EXPECT_EQ(order, (std::vector<std::string>{"E0", "R0", "E1", "E2", "Z0",
                                             "R1", "Z1"}));
  EXPECT_EQ(sim.events_executed(), 7u);
}

TEST(Simulator, FillingAPassedReservationThrows) {
  Simulator sim;
  const Simulator::Reservation at_one = sim.reserve_at(1.0);
  bool threw_in_batch = false;
  sim.schedule(1.0, [&] {
    // Same time, but this event's seq is already past the reserved one.
    try {
      sim.schedule_reserved(at_one, [] {});
    } catch (const std::logic_error&) {
      threw_in_batch = true;
    }
  });
  sim.run();
  EXPECT_TRUE(threw_in_batch);
  // With no batch open, the slot is still behind the event that ran at 1.0,
  // although its time is now().
  ASSERT_EQ(sim.now(), 1.0);
  EXPECT_THROW(sim.schedule_reserved(at_one, [] {}), std::logic_error);
  const Simulator::Reservation at_zero{0.5, at_one.seq};
  EXPECT_THROW(sim.schedule_reserved(at_zero, [] {}), std::logic_error);
  EXPECT_TRUE(sim.idle());
}

TEST(Simulator, ReservationAfterTheLastRunEventStillRuns) {
  Simulator sim;
  std::vector<int> order;
  const Simulator::Reservation early = sim.reserve_at(5.0);
  sim.schedule_at(5.0, [&] { order.push_back(1); });
  const Simulator::Reservation late = sim.reserve_at(5.0);
  sim.run_until(5.0);
  EXPECT_THROW(sim.schedule_reserved(early, [&] { order.push_back(0); }),
               std::logic_error);
  sim.schedule_reserved(late, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Simulator, LargeCallbacksFallBackToTheHeapCorrectly) {
  // A capture bigger than EventFn's inline buffer must still run correctly
  // (boxed path) and in order with inline-stored neighbours.
  Simulator sim;
  std::vector<int> order;
  struct Big {
    double pad[12];  // 96 bytes > kInlineBytes
    std::vector<int>* order;
    void operator()() const { order->push_back(1); }
  };
  sim.schedule(1.0, [&] { order.push_back(0); });
  sim.schedule(1.0, Big{{}, &order});
  sim.schedule(1.0, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

// --- coroutine task tests ---

Task sleeper(Simulator& sim, TimeS dt, std::vector<TimeS>& wakeups) {
  co_await sim.sleep(dt);
  wakeups.push_back(sim.now());
}

TEST(SimulatorTask, SleepResumesAtRightTime) {
  Simulator sim;
  std::vector<TimeS> wakeups;
  sim.spawn(sleeper(sim, 2.5, wakeups));
  sim.run();
  ASSERT_EQ(wakeups.size(), 1u);
  EXPECT_DOUBLE_EQ(wakeups[0], 2.5);
}

Task multi_sleep(Simulator& sim, std::vector<TimeS>& trace) {
  for (int i = 0; i < 4; ++i) {
    co_await sim.sleep(1.0);
    trace.push_back(sim.now());
  }
}

TEST(SimulatorTask, SequentialSleepsAccumulate) {
  Simulator sim;
  std::vector<TimeS> trace;
  sim.spawn(multi_sleep(sim, trace));
  sim.run();
  EXPECT_EQ(trace, (std::vector<TimeS>{1.0, 2.0, 3.0, 4.0}));
}

TEST(SimulatorTask, ZeroSleepYields) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(0.0, [&] { order.push_back(1); });
  sim.spawn([](Simulator& s, std::vector<int>& ord) -> Task {
    ord.push_back(0);  // runs eagerly on spawn
    co_await s.sleep(0.0);
    ord.push_back(2);  // resumes after already-queued same-time event
  }(sim, order));
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

Task thrower(Simulator& sim) {
  co_await sim.sleep(1.0);
  throw std::runtime_error("task failure");
}

TEST(SimulatorTask, ExceptionPropagatesOutOfRun) {
  Simulator sim;
  sim.spawn(thrower(sim));
  EXPECT_THROW(sim.run(), std::runtime_error);
}

TEST(SimulatorTask, BlockedTasksAreReclaimedAtTeardown) {
  // A task suspended forever must not leak (checked under ASan builds);
  // here we just ensure destruction is safe.
  auto sim = std::make_unique<Simulator>();
  sim->spawn([](Simulator& s) -> Task {
    co_await s.sleep(1e9);  // never reached within the run window
  }(*sim));
  sim->run_until(1.0);
  sim.reset();  // must not crash
  SUCCEED();
}

TEST(SimulatorTask, ManyTasksInterleaveDeterministically) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 50; ++i) {
    sim.spawn([](Simulator& s, std::vector<int>& ord, int id) -> Task {
      co_await s.sleep(1.0 + (id % 5) * 0.25);
      ord.push_back(id);
    }(sim, order, i));
  }
  sim.run();
  ASSERT_EQ(order.size(), 50u);
  // Same delay => spawn order preserved; groups ordered by delay.
  std::vector<int> expected;
  for (int d = 0; d < 5; ++d) {
    for (int i = 0; i < 50; ++i) {
      if (i % 5 == d) expected.push_back(i);
    }
  }
  EXPECT_EQ(order, expected);
}

}  // namespace
}  // namespace p3::sim
