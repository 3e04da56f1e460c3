#include "sim/simulator.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

namespace p3::sim {

// The event queue is a 4-ary min-heap over trivially copyable entries:
// half the depth of a binary heap, sift moves that compile to plain
// stores, and the four children of a node share a cache line.

Simulator::~Simulator() {
  // Destroy any processes still suspended (e.g. servers blocked on their
  // inbox when the experiment ended). Frames of finished tasks included.
  for (auto h : tasks_) {
    if (h) h.destroy();
  }
}

std::uint32_t Simulator::acquire_slot() {
  if (free_slots_.empty()) {
    slots_.emplace_back();
    return static_cast<std::uint32_t>(slots_.size() - 1);
  }
  const std::uint32_t slot = free_slots_.back();
  free_slots_.pop_back();
  return slot;
}

void Simulator::enqueue(TimeS t, std::uint32_t slot) {
  const Entry e{t, next_seq_++, slot};
  if (dispatching_ && t == now_) {
    // Same-time event scheduled from inside the open batch: its seq exceeds
    // every event already in the batch and the heap holds nothing at this
    // time, so appending preserves FIFO tie order and skips the heap.
    batch_.push_back(e);
    return;
  }
  heap_push(e);
}

void Simulator::enqueue_reserved(const Entry& e) {
  const bool in_batch = dispatching_ && e.time == now_;
  if (e.time < now_ || (in_batch && e.seq < batch_[cursor_].seq)) {
    slots_[e.slot] = EventFn();
    free_slots_.push_back(e.slot);
    throw std::logic_error("reserved event slot has already been passed");
  }
  if (!in_batch) {
    heap_push(e);
    return;
  }
  // The open batch runs in seq order and holds every event at this time, so
  // the event goes to its seq position among the members not yet run; the
  // zero-delay appends behind them carry larger seqs.
  const auto rest = batch_.begin() + static_cast<std::ptrdiff_t>(cursor_ + 1);
  batch_.insert(std::upper_bound(rest, batch_.end(), e,
                                 [](const Entry& a, const Entry& b) {
                                   return a.seq < b.seq;
                                 }),
                e);
}

void Simulator::heap_push(const Entry& e) {
  std::size_t i = heap_.size();
  heap_.push_back(e);
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!before(e, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = e;
}

Simulator::Entry Simulator::heap_pop() {
  const Entry top = heap_.front();
  const Entry last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n > 0) {
    std::size_t i = 0;
    for (;;) {
      const std::size_t first = 4 * i + 1;
      if (first >= n) break;
      std::size_t best = first;
      const std::size_t end = std::min(first + 4, n);
      for (std::size_t c = first + 1; c < end; ++c) {
        if (before(heap_[c], heap_[best])) best = c;
      }
      if (!before(heap_[best], last)) break;
      heap_[i] = heap_[best];
      i = best;
    }
    heap_[i] = last;
  }
  return top;
}

void Simulator::spawn(Task task) {
  auto h = task.release();
  tasks_.push_back(h);
  h.resume();  // run until the first suspension point
  if (tasks_.size() % 64 == 0) reap_tasks();
}

void Simulator::run_entry(const Entry& e) {
  ++executed_;
  // Move the callback out before invoking: the callback may schedule new
  // events and reallocate the slab.
  EventFn fn = std::move(slots_[e.slot]);
  free_slots_.push_back(e.slot);
  fn();
}

bool Simulator::dispatch(TimeS limit, const std::function<bool()>* done) {
  if (done != nullptr && (*done)()) return true;
  while (!heap_.empty() && heap_.front().time <= limit) {
    const TimeS t = heap_.front().time;
    batch_.clear();
    while (!heap_.empty() && heap_.front().time == t) {
      batch_.push_back(heap_pop());
    }
    now_ = t;
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
  batch_.clear();
  dispatching_ = false;
}

void Simulator::run() {
  dispatch(std::numeric_limits<TimeS>::infinity(), nullptr);
  reap_tasks();
}

TimeS Simulator::run_until(TimeS t) {
  dispatch(t, nullptr);
  if (now_ < t) now_ = t;
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
