#include "sim/sync.h"

#include <gtest/gtest.h>

#include <vector>

namespace p3::sim {
namespace {

TEST(Semaphore, AcquireAvailable) {
  Simulator sim;
  Semaphore s(sim, 2);
  int acquired = 0;
  for (int i = 0; i < 3; ++i) {
    sim.spawn([](Semaphore& sem, int& count) -> Task {
      co_await sem.acquire();
      ++count;
    }(s, acquired));
  }
  sim.run();
  EXPECT_EQ(acquired, 2);
  s.release();
  sim.run();
  EXPECT_EQ(acquired, 3);
}

TEST(Semaphore, MutualExclusion) {
  Simulator sim;
  Semaphore mutex(sim, 1);
  int inside = 0;
  int max_inside = 0;
  for (int i = 0; i < 4; ++i) {
    sim.spawn([](Simulator& s, Semaphore& m, int& in, int& max_in) -> Task {
      co_await m.acquire();
      ++in;
      max_in = std::max(max_in, in);
      co_await s.sleep(1.0);
      --in;
      m.release();
    }(sim, mutex, inside, max_inside));
  }
  sim.run();
  EXPECT_EQ(max_inside, 1);
  EXPECT_DOUBLE_EQ(sim.now(), 4.0);
}

TEST(VersionGate, ImmediateWhenAlreadyReached) {
  Simulator sim;
  VersionGate g(sim);
  g.advance_to(5);
  bool resumed = false;
  sim.spawn([](VersionGate& gate, bool& flag) -> Task {
    co_await gate.wait_for(3);
    flag = true;
  }(g, resumed));
  sim.run();
  EXPECT_TRUE(resumed);
}

TEST(VersionGate, WakesInThresholdOrder) {
  Simulator sim;
  VersionGate g(sim);
  std::vector<int> woken;
  for (int v : {3, 1, 2}) {
    sim.spawn([](VersionGate& gate, std::vector<int>& out, int version)
                  -> Task {
      co_await gate.wait_for(version);
      out.push_back(version);
    }(g, woken, v));
  }
  sim.run();
  EXPECT_TRUE(woken.empty());
  g.advance_to(1);
  sim.run();
  EXPECT_EQ(woken, (std::vector<int>{1}));
  g.advance_to(3);
  sim.run();
  ASSERT_EQ(woken.size(), 3u);
  EXPECT_EQ(woken[1], 3);  // registration order among those released together
  EXPECT_EQ(woken[2], 2);
}

TEST(VersionGate, AdvanceIsMonotonic) {
  Simulator sim;
  VersionGate g(sim);
  g.advance_to(10);
  g.advance_to(5);  // ignored
  EXPECT_EQ(g.version(), 10);
  g.increment();
  EXPECT_EQ(g.version(), 11);
}

}  // namespace
}  // namespace p3::sim
