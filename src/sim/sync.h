// Coroutine synchronization primitives: Semaphore, VersionGate. All wakeups
// go through Simulator::resume_soon for deterministic, non-reentrant
// scheduling.
#pragma once

#include <coroutine>
#include <cstdint>
#include <deque>
#include <stdexcept>

#include "sim/simulator.h"

namespace p3::sim {

/// Counting semaphore.
class Semaphore {
 public:
  Semaphore(Simulator& sim, std::int64_t initial)
      : sim_(&sim), count_(initial) {
    if (initial < 0) throw std::invalid_argument("negative semaphore count");
  }
  Semaphore(const Semaphore&) = delete;
  Semaphore& operator=(const Semaphore&) = delete;

  void release(std::int64_t n = 1) {
    count_ += n;
    while (count_ > 0 && !waiters_.empty()) {
      --count_;
      sim_->resume_soon(waiters_.front());
      waiters_.pop_front();
    }
  }

  auto acquire() {
    struct Awaiter {
      Semaphore* s;
      bool await_ready() const {
        if (s->count_ > 0 && s->waiters_.empty()) {
          --s->count_;
          return true;
        }
        return false;
      }
      void await_suspend(std::coroutine_handle<> h) {
        s->waiters_.push_back(h);
      }
      void await_resume() const {}
    };
    return Awaiter{this};
  }

  std::int64_t available() const { return count_; }

 private:
  Simulator* sim_;
  std::int64_t count_;
  std::deque<std::coroutine_handle<>> waiters_;
};

/// Monotonic version counter with awaitable thresholds. Used for "forward of
/// layer L in iteration i waits until parameter version >= i" gating.
class VersionGate {
 public:
  explicit VersionGate(Simulator& sim) : sim_(&sim) {}
  VersionGate(const VersionGate&) = delete;
  VersionGate& operator=(const VersionGate&) = delete;

  std::int64_t version() const { return version_; }

  void advance_to(std::int64_t v) {
    if (v <= version_) return;
    version_ = v;
    std::erase_if(waiters_, [&](Waiter& w) {
      if (w.needed <= version_) {
        sim_->resume_soon(w.handle);
        return true;
      }
      return false;
    });
  }

  void increment() { advance_to(version_ + 1); }

  /// Awaitable: resume once version() >= needed.
  auto wait_for(std::int64_t needed) {
    struct Awaiter {
      VersionGate* g;
      std::int64_t needed;
      bool await_ready() const { return g->version_ >= needed; }
      void await_suspend(std::coroutine_handle<> h) {
        g->waiters_.push_back(Waiter{needed, h});
      }
      void await_resume() const {}
    };
    return Awaiter{this, needed};
  }

 private:
  struct Waiter {
    std::int64_t needed;
    std::coroutine_handle<> handle;
  };

  Simulator* sim_;
  std::int64_t version_ = 0;
  std::deque<Waiter> waiters_;
};

}  // namespace p3::sim
