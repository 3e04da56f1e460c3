// Awaitable queues for coroutine processes.
//
// `Queue<T>` is an unbounded FIFO channel; `PriorityQueue<T>` pops the item
// with the smallest (priority, seq) key instead, read from the item's own
// `priority` and `seq` members (smaller = more urgent; seq breaks ties, first
// in first out). Both support multiple concurrent consumers (woken FIFO) and
// synchronous producers. Wakeups are scheduled through the simulator rather
// than resumed inline, so a push never runs consumer code reentrantly.
//
// Semantics: a woken consumer pops at *resume* time (like a thread waking
// from a condition variable), so several same-instant pushes are all visible
// and a priority-queue consumer takes the most urgent of them. Items are
// reserved for woken-but-not-yet-resumed consumers: a late consumer (or
// try_pop) cannot overtake one that suspended earlier.
//
// Cost: every push, pop and waiter hand-off touches O(1) queue state.
// Suspended and woken consumers sit in intrusive lists threaded through
// their awaiters, so a cancelled one unlinks in O(1). The priority queue is a
// rank queue: one FIFO list per priority value, plus a bitmap of the
// non-empty ones, so a pop finds the most urgent list with a count-trailing-
// zeros per 64 priorities instead of sifting whole items through a heap. An
// item whose seq is older than its list's tail (a producer re-queueing an
// item it popped earlier, keeping its original place) is inserted at its
// sorted place by a walk of that one list. A pop that leaves its list
// non-empty prefetches the new head's node (sim/prefetch.h), every line of
// it: with one queue per worker and server live at once, that node has often
// left the cache by the next pop, which reads its `next` link first. In a
// worker's send queue that link sits 64 bytes into the node, on another
// line than the item's first bytes.
#pragma once

#include <bit>
#include <coroutine>
#include <cstdint>
#include <deque>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sim/prefetch.h"
#include "sim/simulator.h"

namespace p3::sim {

namespace detail {

/// FIFO storage of Queue<T>.
template <typename T>
class FifoItems {
 public:
  bool empty() const { return items_.empty(); }
  std::size_t size() const { return items_.size(); }
  void push(T value) { items_.push_back(std::move(value)); }
  T pop() {
    T v = std::move(items_.front());
    items_.pop_front();
    return v;
  }

 private:
  std::deque<T> items_;
};

/// Rank storage of PriorityQueue<T>: a FIFO list per priority value over a
/// recycled node pool, and a bitmap of the non-empty lists. Priorities may
/// be any int; the covered range grows (rarely) to take a new extreme.
template <typename T>
class RankItems {
 public:
  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  void push(T value) {
    const std::size_t idx = list_index(value.priority);
    const std::uint32_t n = acquire(std::move(value));
    List& list = lists_[idx];
    if (list.head == kNone) {
      list.head = list.tail = n;
      bits_[idx / 64] |= std::uint64_t{1} << (idx % 64);
    } else if (!(nodes_[n].value.seq < nodes_[list.tail].value.seq)) {
      nodes_[list.tail].next = n;
      list.tail = n;
    } else if (nodes_[n].value.seq < nodes_[list.head].value.seq) {
      nodes_[n].next = list.head;
      list.head = n;
    } else {
      // Older than the tail but not the head: after the last older item.
      std::uint32_t at = list.head;
      while (!(nodes_[n].value.seq < nodes_[nodes_[at].next].value.seq)) {
        at = nodes_[at].next;
      }
      nodes_[n].next = nodes_[at].next;
      nodes_[at].next = n;
    }
    ++size_;
  }

  /// Remove and return the most urgent item; the container must not be
  /// empty.
  T pop() {
    std::size_t word = 0;
    while (bits_[word] == 0) ++word;
    const std::size_t idx =
        word * 64 + static_cast<std::size_t>(std::countr_zero(bits_[word]));
    List& list = lists_[idx];
    const std::uint32_t n = list.head;
    list.head = nodes_[n].next;
    if (list.head == kNone) {
      list.tail = kNone;
      bits_[word] &= bits_[word] - 1;
    } else {
      prefetch(&nodes_[list.head]);
    }
    --size_;
    T v = std::move(nodes_[n].value);
    nodes_[n].next = free_;
    free_ = n;
    return v;
  }

 private:
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};
  struct Node {
    T value;
    std::uint32_t next = kNone;
  };
  struct List {
    std::uint32_t head = kNone;
    std::uint32_t tail = kNone;
  };

  std::uint32_t acquire(T&& value) {
    if (free_ == kNone) {
      nodes_.push_back(Node{std::move(value), kNone});
      return static_cast<std::uint32_t>(nodes_.size() - 1);
    }
    const std::uint32_t n = free_;
    free_ = nodes_[n].next;
    nodes_[n].value = std::move(value);
    nodes_[n].next = kNone;
    return n;
  }

  /// Index of `priority`'s list, widening the covered range if needed.
  std::size_t list_index(int priority) {
    if (lists_.empty()) {
      lo_ = priority;
      resize(1);
    } else if (priority < lo_) {
      // Shift every list up by the gap; rare (a new most-urgent extreme).
      const auto gap = static_cast<std::size_t>(
          static_cast<std::int64_t>(lo_) - priority);
      lists_.insert(lists_.begin(), gap, List{});
      lo_ = priority;
      resize(lists_.size());
    }
    const auto idx = static_cast<std::size_t>(
        static_cast<std::int64_t>(priority) - lo_);
    if (idx >= lists_.size()) resize(idx + 1);
    return idx;
  }

  /// Cover `n` lists and rebuild the bitmap from them.
  void resize(std::size_t n) {
    lists_.resize(n);
    bits_.assign((n + 63) / 64, 0);
    for (std::size_t i = 0; i < n; ++i) {
      if (lists_[i].head != kNone) {
        bits_[i / 64] |= std::uint64_t{1} << (i % 64);
      }
    }
  }

  std::vector<Node> nodes_;
  std::uint32_t free_ = kNone;  ///< recycled nodes, linked through `next`
  std::vector<List> lists_;     ///< lists_[i] holds priority lo_ + i
  std::vector<std::uint64_t> bits_;
  int lo_ = 0;
  std::size_t size_ = 0;
};

/// The awaitable queue over its item storage (FifoItems or RankItems), with
/// the waiter bookkeeping both flavors share.
template <typename T, typename Items>
class Channel {
 public:
  explicit Channel(Simulator& sim) : sim_(&sim) {}
  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;
  ~Channel() {
    // Suspended consumers may outlive the queue (their frames are reclaimed
    // by the Simulator at teardown); mark them so their awaiter destructors
    // do not touch freed queue state. Woken-but-not-yet-resumed consumers
    // left waiters_ in wake_one() and need the same treatment.
    for (Waiter* w = waiters_.head; w != nullptr; w = w->next) {
      w->orphaned = true;
    }
    for (Waiter* w = woken_.head; w != nullptr; w = w->next) {
      w->orphaned = true;
    }
  }

  bool empty() const { return items_.empty(); }
  std::size_t size() const { return items_.size(); }
  std::size_t waiters() const { return waiters_.size; }

  /// Items not reserved for an already-woken consumer.
  std::size_t available() const {
    return items_.size() > reserved_ ? items_.size() - reserved_ : 0;
  }

  void push(T value) {
    items_.push(std::move(value));
    wake_one();
  }

  /// Awaitable pop; resumes with the next item once one is available.
  auto pop() { return PopAwaiter{this}; }

  /// Non-blocking pop of an unreserved item.
  std::optional<T> try_pop() {
    if (available() == 0) return std::nullopt;
    return items_.pop();
  }

 private:
  struct Waiter {
    std::coroutine_handle<> handle;
    Waiter* prev = nullptr;
    Waiter* next = nullptr;
    bool woken = false;
    bool resumed = false;
    bool orphaned = false;  ///< the queue died while this waiter slept
  };

  /// Intrusive FIFO of waiters, threaded through their awaiters.
  struct WaiterList {
    Waiter* head = nullptr;
    Waiter* tail = nullptr;
    std::size_t size = 0;

    void push_back(Waiter* w) {
      w->prev = tail;
      w->next = nullptr;
      (tail != nullptr ? tail->next : head) = w;
      tail = w;
      ++size;
    }
    void unlink(Waiter* w) {
      (w->prev != nullptr ? w->prev->next : head) = w->next;
      (w->next != nullptr ? w->next->prev : tail) = w->prev;
      w->prev = w->next = nullptr;
      --size;
    }
  };

  struct PopAwaiter : Waiter {
    Channel* q;
    explicit PopAwaiter(Channel* queue) : q(queue) {}
    ~PopAwaiter() {
      if (!this->orphaned) q->on_waiter_destroyed(this);
    }
    bool await_ready() {
      // Fast path only if no consumer is queued or pending wakeup.
      return q->waiters_.size == 0 && q->available() > 0;
    }
    void await_suspend(std::coroutine_handle<> h) {
      this->handle = h;
      q->waiters_.push_back(this);
    }
    T await_resume() {
      if (this->woken) q->on_waiter_resumed(this);
      if (q->items_.empty()) {
        throw std::logic_error("queue pop resumed with no item");
      }
      return q->items_.pop();
    }
  };

  /// Wake one suspended consumer (if any) and reserve an item for it.
  void wake_one() {
    Waiter* w = waiters_.head;
    if (w == nullptr) return;
    waiters_.unlink(w);
    w->woken = true;
    woken_.push_back(w);
    ++reserved_;
    sim_->resume_soon(w->handle);
  }

  /// Called at a woken consumer's resume to release its reservation.
  void on_waiter_resumed(Waiter* w) {
    w->resumed = true;
    --reserved_;
    woken_.unlink(w);
  }

  /// Called from ~PopAwaiter to release bookkeeping on cancellation.
  void on_waiter_destroyed(Waiter* w) {
    if (!w->handle) return;
    if (w->woken && !w->resumed) {
      --reserved_;  // reservation abandoned
      woken_.unlink(w);
    } else if (!w->woken) {
      waiters_.unlink(w);
    }
  }

  Simulator* sim_;
  Items items_;
  WaiterList waiters_;
  WaiterList woken_;  ///< woken but not yet resumed/destroyed
  std::size_t reserved_ = 0;
};

}  // namespace detail

/// Unbounded FIFO channel.
template <typename T>
using Queue = detail::Channel<T, detail::FifoItems<T>>;

/// Unbounded priority channel over items with `int priority` and an ordered
/// `seq` member: pops the smallest (priority, seq) first.
template <typename T>
using PriorityQueue = detail::Channel<T, detail::RankItems<T>>;

}  // namespace p3::sim
