// Deterministic discrete-event simulator.
//
// Events are (time, sequence) ordered: ties in time run in scheduling order,
// which makes every experiment bit-reproducible. Coroutine processes
// (`sim::Task`) are spawned onto the simulator and suspend via awaitables
// (`sleep`, and the synchronization primitives in sync.h / queue.h).
//
// Hot-path design (the simulator's wall time and memory are measured by
// perfbench/, see perfbench/NOTES.md):
//   * callbacks are `EventFn` — small-buffer-optimized with a dedicated
//     coroutine-handle representation, so steady-state scheduling does no
//     heap allocation (see event.h);
//   * the priority queue holds 24-byte POD entries (time, seq, slot); the
//     callback itself sits in a recycled slab and never moves during heap
//     sifts, so each event costs exactly two EventFn moves (in and out)
//     however deep the queue gets;
//   * `run`, `run_until` and `run_while` share one dispatch loop that pops
//     same-time events as one batch. Zero-delay events scheduled *during*
//     the batch (queue wakeups, resume_soon — the dominant pattern) append
//     straight to the batch and never touch the heap. FIFO tie order is
//     preserved because an appended event's sequence number exceeds every
//     event already in the batch, and the heap holds no events at the batch
//     time while one is open. A batch that ends early (run_while's
//     predicate fired, or an event threw) puts its unrun rest back on the
//     heap, so the queue stays runnable;
//   * producers whose events come out in (time, seq) order keep them in
//     their own FIFO stream and give the heap only the stream's head. Each
//     event's slot is claimed with `reserve_at` when it is produced and
//     filled with `schedule_reserved` when it reaches the head, so it runs
//     exactly where a plain `schedule_at` would have put it. The network's
//     per-NIC delivery streams (net/network.h) keep the heap at O(nodes)
//     entries instead of one per message in flight.
#pragma once

#include <coroutine>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/units.h"
#include "sim/event.h"
#include "sim/task.h"

namespace p3::sim {

class Simulator {
 public:
  Simulator() = default;
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time in seconds.
  TimeS now() const { return now_; }

  /// Schedule `fn` to run `dt` seconds from now (dt >= 0). The callable is
  /// constructed directly into its slab slot — no temporary EventFn.
  template <typename F>
  void schedule(TimeS dt, F&& fn) {
    if (dt < 0.0) throw std::invalid_argument("negative event delay");
    const std::uint32_t slot = acquire_slot();
    slots_[slot] = std::forward<F>(fn);
    enqueue(now_ + dt, slot);
  }

  /// Schedule `fn` at absolute time `t`; a past `t` clamps to now() (the
  /// event runs after already-queued same-time events, in FIFO tie order).
  template <typename F>
  void schedule_at(TimeS t, F&& fn) {
    schedule(t > now_ ? t - now_ : 0.0, std::forward<F>(fn));
  }

  /// A place in the (time, seq) event order, claimed now for an event that
  /// is scheduled later with schedule_reserved().
  struct Reservation {
    TimeS time;
    std::uint64_t seq;
  };

  /// Claim the slot that `schedule_at(t, ...)` would give an event now.
  Reservation reserve_at(TimeS t) {
    return {now_ + (t > now_ ? t - now_ : 0.0), next_seq_++};
  }

  /// Schedule `fn` into a slot claimed earlier with reserve_at(): it runs
  /// exactly where it would have run had it been scheduled at reservation
  /// time, even inside an open same-time batch. Throws std::logic_error if
  /// the dispatch order has already passed the slot.
  template <typename F>
  void schedule_reserved(Reservation r, F&& fn) {
    const std::uint32_t slot = acquire_slot();
    slots_[slot] = std::forward<F>(fn);
    enqueue_reserved(Entry{r.time, r.seq, slot});
  }

  /// Fast path: resume coroutine `h` after `dt` seconds.
  void schedule_resume(TimeS dt, std::coroutine_handle<> h) {
    schedule(dt, h);
  }

  /// Adopt and start a coroutine process.
  void spawn(Task task);

  /// Run until the event queue drains.
  void run();

  /// Run until the queue drains or simulated time reaches `t`.
  /// Events at exactly `t` run (the whole tie-time batch); events after `t`
  /// stay queued. Returns the final simulated time.
  TimeS run_until(TimeS t);

  /// Run until `done` returns true (checked after every event) or the queue
  /// drains. Returns true if the predicate fired.
  bool run_while(const std::function<bool()>& done);

  /// Number of events executed so far (each batched event counts once).
  std::uint64_t events_executed() const { return executed_; }

  /// True if no events are pending.
  bool idle() const { return heap_.empty() && !dispatching_; }

  /// Events waiting in the heap (members of an open batch not counted).
  std::size_t queued() const { return heap_.size(); }

  /// Awaitable: suspend the current task for `dt` simulated seconds.
  /// A zero delay still yields to other events scheduled at the same time.
  auto sleep(TimeS dt) {
    struct Awaiter {
      Simulator* sim;
      TimeS dt;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) {
        sim->schedule_resume(dt, h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this, dt};
  }

  /// Awaitable: suspend until absolute time `t` (immediately reschedules if
  /// `t` is in the past).
  auto sleep_until(TimeS t) { return sleep(t > now_ ? t - now_ : 0.0); }

  /// Resume `h` at current time, after already-queued same-time events.
  void resume_soon(std::coroutine_handle<> h) { schedule_resume(0.0, h); }

 private:
  /// Heap entry: trivially copyable so sift moves compile to plain stores.
  /// `slot` indexes the callback slab.
  struct Entry {
    TimeS time;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  /// Strict total order on events: (time, seq) — seq values are unique.
  static bool before(const Entry& a, const Entry& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }

  std::uint32_t acquire_slot();
  /// Heap-or-batch insert of a parked callback (non-template backend of
  /// schedule()).
  void enqueue(TimeS t, std::uint32_t slot);
  /// Same for an entry carrying a reserved sequence number.
  void enqueue_reserved(const Entry& e);
  void heap_push(const Entry& e);
  Entry heap_pop();
  void run_entry(const Entry& e);
  /// The dispatch loop behind run, run_until and run_while: runs same-time
  /// batches in (time, seq) order while the earliest event is at or before
  /// `limit`, checking `done` (if given) before the first event and after
  /// every event. Returns true if `done` fired.
  bool dispatch(TimeS limit, const std::function<bool()>* done);
  /// Close the open batch; its members after `cursor_` go back on the heap.
  void close_batch();
  void reap_tasks();

  TimeS now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::vector<Entry> heap_;
  std::vector<EventFn> slots_;            ///< parked callbacks
  std::vector<std::uint32_t> free_slots_; ///< recycled slab indices
  std::vector<Entry> batch_;  ///< reused dispatch buffer, sorted by seq
  std::size_t cursor_ = 0;    ///< index of the running batch member
  bool dispatching_ = false;  ///< a batch at time now_ is being run
  std::vector<Task::Handle> tasks_;
};

}  // namespace p3::sim
