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
//     heap allocation (see event.h). They sit in a recycled slab and never
//     move during heap sifts. A resume event (the dominant kind) runs by
//     taking its coroutine handle out of the slot; any other callback is
//     moved out once and invoked;
//   * the priority queue is a 4-ary min-heap of 16-byte keys. A key is one
//     128-bit integer: the event time's bit pattern (times are never
//     negative, so their bit patterns order like the times) over a word
//     that packs the sequence number above a 24-bit slab slot. Comparing
//     two keys compares (time, seq), and a node picks the least of its four
//     children without branches. A sequence number past 2^40 or a slot
//     past 2^24 throws std::overflow_error instead of wrapping;
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
//     entries instead of one per message in flight. The reliable transport's
//     retransmit timers (ps/transport.h) claim theirs with `reserve`, the
//     slot a plain `schedule` would have given, and only the earliest live
//     timer holds a heap entry.
//
// Event times must be numbers: a NaN delay or time throws
// std::invalid_argument, since it would otherwise sort after +infinity.
#pragma once

#include <bit>
#include <cmath>
#include <compare>
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

  /// Schedule `fn` to run `dt` seconds from now (dt >= 0; a negative or NaN
  /// delay throws std::invalid_argument). The callable is constructed
  /// directly into its slab slot — no temporary EventFn.
  template <typename F>
  void schedule(TimeS dt, F&& fn) {
    if (!(dt >= 0.0)) {
      throw std::invalid_argument(std::isnan(dt) ? "NaN event delay"
                                                 : "negative event delay");
    }
    const std::uint64_t seq = take_seq();
    const std::uint32_t slot = acquire_slot();
    slots_[slot] = std::forward<F>(fn);
    enqueue(make_key(now_ + dt, seq, slot));
  }

  /// Schedule `fn` at absolute time `t`; a past `t` clamps to now() (the
  /// event runs after already-queued same-time events, in FIFO tie order).
  /// A NaN `t` throws std::invalid_argument.
  template <typename F>
  void schedule_at(TimeS t, F&& fn) {
    if (std::isnan(t)) throw std::invalid_argument("NaN event time");
    schedule(t > now_ ? t - now_ : 0.0, std::forward<F>(fn));
  }

  /// A place in the (time, seq) event order, claimed now for an event that
  /// is scheduled later with schedule_reserved(). Compares in event order.
  struct Reservation {
    TimeS time;
    std::uint64_t seq;
    auto operator<=>(const Reservation&) const = default;
  };

  /// Claim the slot that `schedule(dt, ...)` would give an event now: the
  /// time is schedule's own `now + dt`. A negative or NaN delay throws
  /// std::invalid_argument.
  Reservation reserve(TimeS dt) {
    if (!(dt >= 0.0)) {
      throw std::invalid_argument(std::isnan(dt) ? "NaN event delay"
                                                 : "negative event delay");
    }
    return {now_ + dt, take_seq()};
  }

  /// Claim the slot that `schedule_at(t, ...)` would give an event now. A NaN
  /// `t` throws std::invalid_argument.
  Reservation reserve_at(TimeS t) {
    if (std::isnan(t)) throw std::invalid_argument("NaN event time");
    return {now_ + (t > now_ ? t - now_ : 0.0), take_seq()};
  }

  /// Schedule `fn` into a slot claimed earlier with reserve() or
  /// reserve_at(): it runs exactly where it would have run had it been
  /// scheduled at reservation time, even inside an open same-time batch.
  /// Throws std::logic_error if the dispatch order has already passed the
  /// slot.
  template <typename F>
  void schedule_reserved(Reservation r, F&& fn) {
    const std::uint32_t slot = acquire_slot();
    slots_[slot] = std::forward<F>(fn);
    enqueue_reserved(make_key(r.time, r.seq, slot));
  }

  /// Fast path: resume coroutine `h` after `dt` seconds.
  void schedule_resume(TimeS dt, std::coroutine_handle<> h) {
    schedule(dt, h);
  }

  /// Adopt and start a coroutine process.
  void spawn(Task task);

  /// Destroy every process frame, suspended or finished, and drop every
  /// pending event, leaving an empty simulator at the current time. Owners
  /// whose process frames hold resources of objects that die before the
  /// simulator call this first (net::Network's message handles, see
  /// ps::Cluster's destructor). Not to be called from inside an event.
  void clear();

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

  /// Heap pushes and pops so far. An event that runs from an open batch
  /// without touching the heap counts in neither; a batch member put back
  /// by an early exit counts as a push again.
  std::uint64_t heap_pushes() const { return heap_pushes_; }
  std::uint64_t heap_pops() const { return heap_pops_; }

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
  /// Heap entry: the event time's bit pattern in the high 64 bits, then the
  /// sequence number, then the slab slot of its callback. Unsigned order on
  /// keys is (time, seq) order, since times are never negative and seq
  /// values are unique.
  __extension__ using Key = unsigned __int128;
  static constexpr int kSlotBits = 24;
  static constexpr std::uint64_t kMaxSlots = std::uint64_t{1} << kSlotBits;
  static constexpr std::uint64_t kMaxSeq = std::uint64_t{1}
                                           << (64 - kSlotBits);

  static Key make_key(TimeS t, std::uint64_t seq, std::uint32_t slot) {
    return Key{std::bit_cast<std::uint64_t>(t)} << 64 |
           Key{seq << kSlotBits | slot};
  }
  static TimeS time_of(Key k) {
    return std::bit_cast<TimeS>(static_cast<std::uint64_t>(k >> 64));
  }
  /// The first (time, seq) slot at time `t`, shifted like unpassed_.
  static Key first_slot_at(TimeS t) {
    return make_key(t, 0, 0) >> kSlotBits;
  }
  static std::uint32_t slot_of(Key k) {
    return static_cast<std::uint32_t>(static_cast<std::uint64_t>(k) &
                                      (kMaxSlots - 1));
  }

  std::uint64_t take_seq() {
    if (next_seq_ >= kMaxSeq) {
      throw std::overflow_error("event sequence numbers exhausted");
    }
    return next_seq_++;
  }
  std::uint32_t acquire_slot();
  /// Heap-or-batch insert of a parked callback (non-template backend of
  /// schedule()).
  void enqueue(Key k);
  /// Same for a key carrying a reserved sequence number.
  void enqueue_reserved(Key k);
  void heap_push(Key k);
  Key heap_pop();
  void run_entry(Key k);
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
  std::uint64_t heap_pushes_ = 0;
  std::uint64_t heap_pops_ = 0;
  std::vector<Key> heap_;
  std::vector<EventFn> slots_;            ///< parked callbacks
  std::vector<std::uint32_t> free_slots_; ///< recycled slab indices
  std::vector<Key> batch_;    ///< reused dispatch buffer, sorted by seq
  std::size_t cursor_ = 0;    ///< index of the running batch member
  bool dispatching_ = false;  ///< a batch at time now_ is being run
  /// The first (time, seq) slot the dispatch order has not passed, as a key
  /// shifted past its slot bits: the first slot at now() when time
  /// advances, and the one after the last event run when a batch closes.
  Key unpassed_ = 0;
  std::vector<Task::Handle> tasks_;
};

}  // namespace p3::sim
