#include "sim/simulator.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

namespace p3::sim {

// The event queue is a 4-ary min-heap over 128-bit keys: half the depth of
// a binary heap, and sift moves that compile to plain stores. The root is at
// index 0, so node i's four children span bytes 64i+16 to 64i+79 of the
// buffer: they share one cache line only when the buffer happens to start
// 48 bytes past a line boundary, and straddle two otherwise. Putting the
// root at index 3 of a 64-byte-aligned buffer would keep every child set on
// one line, but measured within noise of this layout on a heap of 334 keys,
// the mean depth at pop of the benchmark's slowest point (EXPERIMENTS.md).

Simulator::~Simulator() { clear(); }

void Simulator::clear() {
  // Destroy any processes still suspended (e.g. servers blocked on their
  // inbox when the experiment ended). Frames of finished tasks included.
  for (auto h : tasks_) {
    if (h) h.destroy();
  }
  tasks_.clear();
  heap_.clear();
  batch_.clear();
  cursor_ = 0;
  dispatching_ = false;
  slots_.clear();
  free_slots_.clear();
}

std::uint32_t Simulator::acquire_slot() {
  if (free_slots_.empty()) {
    if (slots_.size() >= kMaxSlots) {
      throw std::overflow_error("too many pending events");
    }
    slots_.emplace_back();
    return static_cast<std::uint32_t>(slots_.size() - 1);
  }
  const std::uint32_t slot = free_slots_.back();
  free_slots_.pop_back();
  return slot;
}

void Simulator::enqueue(Key k) {
  if (dispatching_ && time_of(k) == now_) {
    // Same-time event scheduled from inside the open batch: its seq exceeds
    // every event already in the batch and the heap holds nothing at this
    // time, so appending preserves FIFO tie order and skips the heap.
    batch_.push_back(k);
    return;
  }
  heap_push(k);
}

void Simulator::enqueue_reserved(Key k) {
  const bool in_batch = dispatching_ && time_of(k) == now_;
  // Inside the open batch every member before the running one has passed;
  // elsewhere, every slot below unpassed_. Keys without their slot bits
  // compare in (time, seq) order.
  const Key first_open = in_batch ? batch_[cursor_] >> kSlotBits : unpassed_;
  if ((k >> kSlotBits) < first_open) {
    slots_[slot_of(k)] = EventFn();
    free_slots_.push_back(slot_of(k));
    throw std::logic_error("reserved event slot has already been passed");
  }
  if (!in_batch) {
    heap_push(k);
    return;
  }
  // The open batch runs in seq order and holds every event at this time, so
  // the event goes to its seq position among the members not yet run; the
  // zero-delay appends behind them carry larger seqs. Same time, so key
  // order is seq order.
  const auto rest = batch_.begin() + static_cast<std::ptrdiff_t>(cursor_ + 1);
  batch_.insert(std::upper_bound(rest, batch_.end(), k), k);
}

void Simulator::heap_push(Key k) {
  ++heap_pushes_;
  std::size_t i = heap_.size();
  heap_.push_back(k);
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!(k < heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = k;
}

Simulator::Key Simulator::heap_pop() {
  ++heap_pops_;
  const Key top = heap_.front();
  const Key last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n == 0) return top;
  const Key* h = heap_.data();
  std::size_t i = 0;
  for (;;) {
    const std::size_t first = 4 * i + 1;
    std::size_t best;
    if (first + 4 <= n) {
      // Full node: pick the least of four children with selects, not
      // branches (which child wins is unpredictable).
      const std::size_t a = h[first + 1] < h[first] ? first + 1 : first;
      const std::size_t b = h[first + 3] < h[first + 2] ? first + 3 : first + 2;
      best = h[b] < h[a] ? b : a;
    } else {
      if (first >= n) break;
      best = first;
      for (std::size_t c = first + 1; c < n; ++c) {
        if (h[c] < h[best]) best = c;
      }
    }
    if (!(h[best] < last)) break;
    heap_[i] = h[best];
    i = best;
  }
  heap_[i] = last;
  return top;
}

void Simulator::spawn(Task task) {
  auto h = task.release();
  tasks_.push_back(h);
  h.resume();  // run until the first suspension point
  if (tasks_.size() % 64 == 0) reap_tasks();
}

void Simulator::run_entry(Key k) {
  ++executed_;
  const std::uint32_t slot = slot_of(k);
  // A resume event leaves its slot as the bare handle; resuming may
  // schedule new events and reallocate the slab, so free the slot first.
  if (const std::coroutine_handle<> h = slots_[slot].take_resume()) {
    free_slots_.push_back(slot);
    h.resume();
    return;
  }
  // Any other callback moves out before it runs, for the same reason.
  EventFn fn = std::move(slots_[slot]);
  free_slots_.push_back(slot);
  fn();
}

bool Simulator::dispatch(TimeS limit, const std::function<bool()>* done) {
  if (done != nullptr && (*done)()) return true;
  while (!heap_.empty() && time_of(heap_.front()) <= limit) {
    const TimeS t = time_of(heap_.front());
    batch_.clear();
    while (!heap_.empty() && time_of(heap_.front()) == t) {
      batch_.push_back(heap_pop());
    }
    now_ = t;
    unpassed_ = first_slot_at(t);
    dispatching_ = true;
    // batch_ may grow while we iterate: same-time events scheduled by a batch
    // member join it behind the cursor (see enqueue() and
    // enqueue_reserved()). Index, don't iterate.
    for (cursor_ = 0; cursor_ < batch_.size(); ++cursor_) {
      bool fired = false;
      try {
        run_entry(batch_[cursor_]);
        fired = done != nullptr && (*done)();
      } catch (...) {
        close_batch();
        throw;
      }
      if (fired) {
        close_batch();
        return true;
      }
    }
    close_batch();
  }
  return false;
}

void Simulator::close_batch() {
  for (std::size_t j = cursor_ + 1; j < batch_.size(); ++j) {
    heap_push(batch_[j]);
  }
  // The member at the cursor ran last (or threw); past the end, the last.
  unpassed_ = (batch_[std::min(cursor_, batch_.size() - 1)] >> kSlotBits) + 1;
  batch_.clear();
  dispatching_ = false;
}

void Simulator::run() {
  dispatch(std::numeric_limits<TimeS>::infinity(), nullptr);
  reap_tasks();
}

TimeS Simulator::run_until(TimeS t) {
  dispatch(t, nullptr);
  if (now_ < t) {
    now_ = t;
    unpassed_ = first_slot_at(t);
  }
  reap_tasks();
  return now_;
}

bool Simulator::run_while(const std::function<bool()>& done) {
  const bool fired = dispatch(std::numeric_limits<TimeS>::infinity(), &done);
  reap_tasks();
  return fired;
}

void Simulator::reap_tasks() {
  std::erase_if(tasks_, [](Task::Handle h) {
    if (h.done()) {
      h.destroy();
      return true;
    }
    return false;
  });
}

}  // namespace p3::sim
