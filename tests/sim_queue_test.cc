#include "sim/queue.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"

namespace p3::sim {
namespace {

Task consume_n(Simulator& sim, Queue<int>& q, int n, std::vector<int>& out) {
  (void)sim;
  for (int i = 0; i < n; ++i) {
    int v = co_await q.pop();
    out.push_back(v);
  }
}

TEST(Queue, PopWaitsForPush) {
  Simulator sim;
  Queue<int> q(sim);
  std::vector<int> out;
  sim.spawn(consume_n(sim, q, 1, out));
  sim.run();
  EXPECT_TRUE(out.empty());  // still blocked
  q.push(42);
  sim.run();
  EXPECT_EQ(out, (std::vector<int>{42}));
}

TEST(Queue, FifoOrder) {
  Simulator sim;
  Queue<int> q(sim);
  std::vector<int> out;
  for (int i = 0; i < 5; ++i) q.push(i);
  sim.spawn(consume_n(sim, q, 5, out));
  sim.run();
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Queue, TryPop) {
  Simulator sim;
  Queue<std::string> q(sim);
  EXPECT_FALSE(q.try_pop().has_value());
  q.push("a");
  q.push("b");
  EXPECT_EQ(q.try_pop().value(), "a");
  EXPECT_EQ(q.try_pop().value(), "b");
  EXPECT_FALSE(q.try_pop().has_value());
}

TEST(Queue, MultipleConsumersWokenFifo) {
  Simulator sim;
  Queue<int> q(sim);
  std::vector<std::pair<int, int>> got;  // (consumer, value)
  for (int c = 0; c < 3; ++c) {
    sim.spawn([](Queue<int>& queue, std::vector<std::pair<int, int>>& out,
                 int id) -> Task {
      int v = co_await queue.pop();
      out.emplace_back(id, v);
    }(q, got, c));
  }
  sim.run();
  EXPECT_TRUE(got.empty());
  q.push(10);
  q.push(11);
  q.push(12);
  sim.run();
  ASSERT_EQ(got.size(), 3u);
  // First-suspended consumer gets first value.
  EXPECT_EQ(got[0], (std::pair<int, int>{0, 10}));
  EXPECT_EQ(got[1], (std::pair<int, int>{1, 11}));
  EXPECT_EQ(got[2], (std::pair<int, int>{2, 12}));
}

TEST(Queue, LateConsumerDoesNotOvertakeWaiter) {
  Simulator sim;
  Queue<int> q(sim);
  std::vector<std::pair<int, int>> got;
  sim.spawn([](Queue<int>& queue, std::vector<std::pair<int, int>>& out)
                -> Task {
    int v = co_await queue.pop();  // suspends: queue empty
    out.emplace_back(0, v);
  }(q, got));
  q.push(1);
  // Consumer 1 arrives while consumer 0's wakeup is still pending; the item
  // is reserved for consumer 0.
  sim.spawn([](Queue<int>& queue, std::vector<std::pair<int, int>>& out)
                -> Task {
    int v = co_await queue.pop();
    out.emplace_back(1, v);
  }(q, got));
  q.push(2);
  sim.run();
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], (std::pair<int, int>{0, 1}));
  EXPECT_EQ(got[1], (std::pair<int, int>{1, 2}));
}

struct PrioItem {
  int priority;      // smaller value = more urgent
  std::int64_t seq;  // tie-break: smaller first
};

using Prio = PriorityQueue<PrioItem>;

TEST(PriorityQueue, PopsHighestPriorityFirst) {
  Simulator sim;
  Prio q(sim);
  q.push({3, 0});
  q.push({1, 1});
  q.push({2, 2});
  std::vector<int> order;
  sim.spawn([](Prio& queue, std::vector<int>& out) -> Task {
    for (int i = 0; i < 3; ++i) {
      PrioItem item = co_await queue.pop();
      out.push_back(item.priority);
    }
  }(q, order));
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(PriorityQueue, LaterHighPriorityPreemptsQueuedItems) {
  // Models the P3 worker: while low-priority slices sit in the send queue, a
  // newly produced high-priority slice must be sent next.
  Simulator sim;
  Prio q(sim);
  std::vector<std::int64_t> order;
  sim.spawn([](Simulator& s, Prio& queue,
               std::vector<std::int64_t>& out) -> Task {
    for (int i = 0; i < 4; ++i) {
      PrioItem item = co_await queue.pop();
      out.push_back(item.seq);
      co_await s.sleep(1.0);  // emulate blocking send
    }
  }(sim, q, order));
  q.push({10, 100});
  q.push({9, 101});
  sim.run_until(0.5);
  q.push({1, 102});  // urgent slice arrives mid-send
  q.push({2, 103});
  sim.run();
  // Both initial pushes land before the consumer's wakeup runs, so it takes
  // the more urgent 101 first (pop-at-resume semantics); 100 is mid-"send"
  // when the urgent slices arrive, then 102, 103 preempt it... 100 last.
  EXPECT_EQ(order, (std::vector<std::int64_t>{101, 102, 103, 100}));
}

TEST(PriorityQueue, TryPop) {
  Simulator sim;
  Prio q(sim);
  EXPECT_FALSE(q.try_pop().has_value());
  q.push({5, 1});
  q.push({2, 2});
  EXPECT_EQ(q.try_pop()->priority, 2);
  EXPECT_EQ(q.try_pop()->priority, 5);
  EXPECT_FALSE(q.try_pop().has_value());
}

std::vector<std::int64_t> drain_seqs(Prio& q) {
  std::vector<std::int64_t> out;
  while (auto item = q.try_pop()) out.push_back(item->seq);
  return out;
}

TEST(PriorityQueue, EqualPrioritiesPopInSeqOrder) {
  Simulator sim;
  Prio q(sim);
  for (std::int64_t seq = 0; seq < 6; ++seq) q.push({7, seq});
  q.push({-3, 6});
  EXPECT_EQ(drain_seqs(q), (std::vector<std::int64_t>{6, 0, 1, 2, 3, 4, 5}));
}

TEST(PriorityQueue, OldSeqInsertsAtItsSortedPlace) {
  // A producer re-queueing an item it popped earlier keeps its original
  // seq, so the item lands among its priority's items by seq: at the head,
  // in the middle, or (equal to nothing queued) before the tail.
  Simulator sim;
  Prio q(sim);
  for (std::int64_t seq : {10, 20, 30, 40}) q.push({4, seq});
  q.push({4, 5});   // head
  q.push({4, 25});  // middle
  q.push({4, 35});  // just before the tail
  q.push({4, 50});  // plain append
  q.push({9, 1});   // another priority is unaffected
  EXPECT_EQ(drain_seqs(q),
            (std::vector<std::int64_t>{5, 10, 20, 25, 30, 35, 40, 50, 1}));
  // The emptied lists take new items from scratch.
  q.push({4, 3});
  q.push({4, 2});
  EXPECT_EQ(drain_seqs(q), (std::vector<std::int64_t>{2, 3}));
}

// Reference order: std::priority_queue on (priority, seq), smallest first.
struct RefOrder {
  bool operator()(const PrioItem& a, const PrioItem& b) const {
    if (a.priority != b.priority) return a.priority > b.priority;
    return a.seq > b.seq;
  }
};

TEST(PriorityQueue, RandomMixMatchesReferenceOrder) {
  // Seeded mix of pushes (priorities -1..200 span four bitmap words; one in
  // eight pushes re-uses an older seq), try_pops and awaited pops (some
  // suspending on an empty queue and popping at resume), checked pop for pop
  // against a reference heap on (priority, seq).
  Simulator sim;
  Prio q(sim);
  std::priority_queue<PrioItem, std::vector<PrioItem>, RefOrder> ref;
  Rng rng(20190401);
  std::int64_t next_seq = 1000;
  std::vector<PrioItem> popped;
  std::vector<PrioItem> expected;
  auto push_random = [&] {
    PrioItem item;
    item.priority = -1 + static_cast<int>(rng.uniform_index(202));
    item.seq = rng.uniform() < 0.125
                   ? static_cast<std::int64_t>(rng.uniform_index(
                         static_cast<std::uint64_t>(next_seq)))
                   : ++next_seq;
    q.push(item);
    ref.push(item);
  };
  auto take_ref = [&] {
    expected.push_back(ref.top());
    ref.pop();
  };
  for (int step = 0; step < 20000; ++step) {
    const double r = rng.uniform();
    if (r < 0.5) {
      push_random();
    } else if (r < 0.8) {
      const auto got = q.try_pop();
      ASSERT_EQ(got.has_value(), !ref.empty());
      if (got) {
        popped.push_back(*got);
        take_ref();
      }
    } else {
      // Awaited pop: on a non-empty queue the consumer pops at once; on an
      // empty one it suspends, and at resume takes the most urgent of the
      // pushes that woke it.
      const bool waits = ref.empty();
      sim.spawn([](Prio& queue, std::vector<PrioItem>& out) -> Task {
        out.push_back(co_await queue.pop());
      }(q, popped));
      if (!waits) take_ref();
      const auto extra = rng.uniform_index(3) + (waits ? 1 : 0);
      for (std::uint64_t i = 0; i < extra; ++i) push_random();
      if (waits) take_ref();
      sim.run();
    }
  }
  ASSERT_EQ(popped.size(), expected.size());
  for (std::size_t i = 0; i < popped.size(); ++i) {
    ASSERT_EQ(popped[i].priority, expected[i].priority) << "pop " << i;
    ASSERT_EQ(popped[i].seq, expected[i].seq) << "pop " << i;
  }
  EXPECT_EQ(q.size(), ref.size());
}

TEST(PriorityQueue, WokenConsumersPopAtResumeAndKeepReservations) {
  // Two consumers suspend on an empty queue; three pushes at one instant
  // wake both (reserving two items). A try_pop before they resume may take
  // only the unreserved third item, and it takes the most urgent one; the
  // consumers then pop, in wake order, the most urgent of what is left.
  Simulator sim;
  Prio q(sim);
  std::vector<std::pair<int, std::int64_t>> got;  // (consumer, seq)
  for (int c = 0; c < 2; ++c) {
    sim.spawn([](Prio& queue, std::vector<std::pair<int, std::int64_t>>& out,
                 int id) -> Task {
      const PrioItem item = co_await queue.pop();
      out.emplace_back(id, item.seq);
    }(q, got, c));
  }
  sim.run();
  EXPECT_EQ(q.waiters(), 2u);
  q.push({5, 1});
  q.push({3, 2});
  q.push({8, 3});
  EXPECT_EQ(q.waiters(), 0u);
  EXPECT_EQ(q.available(), 1u);
  const auto early = q.try_pop();
  ASSERT_TRUE(early.has_value());
  EXPECT_EQ(early->seq, 2);
  EXPECT_FALSE(q.try_pop().has_value());  // the rest is reserved
  q.push({1, 4});  // lands before the woken consumers resume
  sim.run();
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], (std::pair<int, std::int64_t>{0, 4}));
  EXPECT_EQ(got[1], (std::pair<int, std::int64_t>{1, 1}));
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.try_pop()->seq, 3);
}

TEST(Queue, CancelledWaiterUnlinksFromTheMiddle) {
  // Three consumers wait; the middle one's frame is destroyed (its queue
  // outlives it), so the next push must wake the third, not a dead frame.
  Simulator sim;
  Queue<int> q(sim);
  std::vector<std::pair<int, int>> got;
  sim.spawn([](Queue<int>& queue, std::vector<std::pair<int, int>>& out)
                -> Task { out.emplace_back(0, co_await queue.pop()); }(q, got));
  {
    // The middle consumer runs in its own simulator, which dies first.
    Simulator side;
    side.spawn([](Queue<int>& queue, std::vector<std::pair<int, int>>& out)
                   -> Task { out.emplace_back(1, co_await queue.pop()); }(
        q, got));
    EXPECT_EQ(q.waiters(), 2u);
  }
  sim.spawn([](Queue<int>& queue, std::vector<std::pair<int, int>>& out)
                -> Task { out.emplace_back(2, co_await queue.pop()); }(q, got));
  EXPECT_EQ(q.waiters(), 2u);
  q.push(10);
  q.push(11);
  sim.run();
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], (std::pair<int, int>{0, 10}));
  EXPECT_EQ(got[1], (std::pair<int, int>{2, 11}));
}

// A push wakes a consumer through the event loop; if the run ends before
// the wakeup fires, the consumer is woken-but-not-resumed. Destroying the
// queue and then the simulator (which reclaims the suspended frame, running
// ~PopAwaiter) must not touch freed queue state.
TEST(Queue, WokenWaiterMaySurviveQueueDestruction) {
  Simulator sim;
  auto q = std::make_unique<Queue<int>>(sim);
  std::vector<int> out;
  sim.spawn(consume_n(sim, *q, 1, out));
  sim.run();    // consumer suspends in pop()
  q->push(7);   // wakes it via resume_soon, but we never run the event
  EXPECT_EQ(q->waiters(), 0u);
  q.reset();    // queue dies first, orphaning the woken waiter
  // ~Simulator destroys the frame; must not crash (asserted under asan).
}

TEST(Queue, SizeAndWaiters) {
  Simulator sim;
  Queue<int> q(sim);
  EXPECT_EQ(q.size(), 0u);
  q.push(1);
  q.push(2);
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.waiters(), 0u);
  (void)q.try_pop();
  EXPECT_EQ(q.size(), 1u);
}

}  // namespace
}  // namespace p3::sim
