// Reliable delivery for tracked messages: acks, retransmit timers and
// per-node duplicate suppression, kept apart from the protocol in
// ps::Cluster (docs/PROTOCOL.md, "Reliable delivery").
//
// A tracked message takes the next msg id and stays pending until its ack
// lands, its sender's process dies, or its destination is gone for good.
// The owner sees a narrow interface: send() or track() a message, accept()
// an arrival (it is acked, and the answer says whether it is new), ack() an
// acknowledgement (one lookup, which also returns what the send was holding
// up: a commit barrier or a migration), peer_gone() when a node's process
// dies, and a requeue hook for timed-out sends that go back through a
// worker's send queue.
//
// What each piece costs:
//   * retransmit timers wait in a TimerQueue, not on the event heap. Each
//     claims the exact (time, seq) slot `Simulator::schedule` would have
//     given it, and only the earliest live timer holds a heap entry, so a
//     timer whose message is acked (almost all of them) is discarded
//     without ever becoming an event;
//   * pending sends sit in a PendingRing indexed by `msg_id - oldest`: ids
//     are handed out consecutively, so find and erase are O(1), and the
//     oldest pending id, which is the dedup GC floor, is the ring's front;
//   * each node's dedup table is a DedupWindow, a bitset over msg ids with
//     a live count.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "net/message.h"
#include "net/network.h"
#include "obs/registry.h"
#include "sim/simulator.h"

namespace p3::ps {

/// Timers keyed by id, held off the event heap. A timer armed with delay
/// `dt` claims the slot `sim.schedule(dt, ...)` would have given it
/// (Simulator::reserve), so a timer that fires runs exactly where a plain
/// event would have run. Only the earliest live timer holds a simulator
/// event, its wakeup; a timer whose id is no longer live is discarded when
/// it reaches the front instead of firing. A wakeup whose timer died after
/// the wakeup was scheduled finds no live timer and only hands the wakeup
/// on to the next live one (counted in idle_wakeups()).
class TimerQueue {
 public:
  using Live = std::function<bool(std::int64_t id)>;
  using Fire = std::function<void(std::int64_t id)>;

  /// `live(id)` says whether a timer for `id` still matters; a live timer
  /// calls `fire(id)` in its slot. Liveness must never come back: once
  /// `live(id)` is false it stays false.
  TimerQueue(sim::Simulator& sim, Live live, Fire fire)
      : sim_(sim), live_(std::move(live)), fire_(std::move(fire)) {}
  TimerQueue(const TimerQueue&) = delete;
  TimerQueue& operator=(const TimerQueue&) = delete;

  /// Arm a timer for `id`, `dt` seconds from now.
  void arm(std::int64_t id, TimeS dt);

  /// Timers held: live ones and dead ones not yet discarded.
  std::size_t size() const { return timers_.size(); }
  /// Wakeups that found no live timer in their slot.
  std::int64_t idle_wakeups() const { return idle_wakeups_; }

 private:
  using Slot = sim::Simulator::Reservation;
  struct Timer {
    Slot at;
    std::int64_t id;
  };
  /// Heap order: the earliest slot on top.
  static bool later(const Timer& a, const Timer& b) { return b.at < a.at; }

  void wake();
  void wake_at(Slot at);
  void pop_front();
  void discard_dead();
  /// Discard dead timers at the front; give the front a wakeup if none of
  /// the pending ones comes at or before its slot.
  void cover_front();

  sim::Simulator& sim_;
  Live live_;
  Fire fire_;
  std::vector<Timer> timers_;  ///< binary min-heap by slot
  /// Slots of the pending wakeups, earliest last. A timer armed ahead of
  /// the earliest gets a wakeup of its own; the later ones stay queued and
  /// find the front moved on when they run.
  std::vector<Slot> wakeups_;
  std::int64_t idle_wakeups_ = 0;
};

/// Values under consecutive ids, of which the oldest may stay pinned for a
/// long time. Entry `id` sits at `id - oldest()` of a ring of slab indices,
/// so push, find and erase are O(1) and the oldest live id is the ring's
/// front; the ring spans every id from the oldest live one to the newest,
/// at 4 bytes an id.
template <typename T>
class PendingRing {
 public:
  /// The id the next push() hands out.
  std::int64_t next_id() const { return next_; }
  /// The oldest live id, or next_id() when the ring is empty.
  std::int64_t oldest() const { return base_; }
  std::size_t size() const { return slab_.size() - free_.size(); }

  /// Store `value` under next_id() and return that id.
  std::int64_t push(T value) {
    std::uint32_t slot;
    if (free_.empty()) {
      slot = static_cast<std::uint32_t>(slab_.size());
      slab_.push_back(std::move(value));
    } else {
      slot = free_.back();
      free_.pop_back();
      slab_[slot] = std::move(value);
    }
    if (span_ == ring_.size()) grow();
    ring_[(head_ + span_) & (ring_.size() - 1)] = slot;
    ++span_;
    return next_++;
  }

  /// The value under `id`, or nullptr if `id` is not live.
  T* find(std::int64_t id) {
    if (id < base_ || id >= next_) return nullptr;
    const std::uint32_t slot = cell(id);
    return slot == kNone ? nullptr : &slab_[slot];
  }

  /// Remove `id` and return its value; nullopt if `id` is not live.
  std::optional<T> take(std::int64_t id) {
    if (id < base_ || id >= next_) return std::nullopt;
    std::uint32_t& c = cell(id);
    if (c == kNone) return std::nullopt;
    std::optional<T> value(std::move(slab_[c]));
    free_.push_back(c);
    c = kNone;
    while (span_ > 0 && ring_[head_] == kNone) {
      head_ = (head_ + 1) & (ring_.size() - 1);
      --span_;
      ++base_;
    }
    return value;
  }

 private:
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};

  std::uint32_t& cell(std::int64_t id) {
    return ring_[(head_ + static_cast<std::size_t>(id - base_)) &
                 (ring_.size() - 1)];
  }
  void grow() {
    std::vector<std::uint32_t> wider(ring_.empty() ? 64 : 2 * ring_.size());
    for (std::size_t i = 0; i < span_; ++i) {
      wider[i] = ring_[(head_ + i) & (ring_.size() - 1)];
    }
    ring_ = std::move(wider);
    head_ = 0;
  }

  std::vector<std::uint32_t> ring_;  ///< slab slots; size a power of two
  std::size_t head_ = 0;             ///< ring position of id base_
  std::size_t span_ = 0;             ///< next_ - base_
  std::vector<T> slab_;
  std::vector<std::uint32_t> free_;  ///< recycled slab slots
  std::int64_t base_ = 0;
  std::int64_t next_ = 0;
};

/// One node's duplicate-suppression table: the msg ids it has accepted, as
/// a bitset window with a live count. Once the table holds
/// kGcThreshold ids, each accept raises the floor to the oldest id any
/// sender still has pending and drops every id below it; ids below the
/// floor are suppressed by the floor alone. The floor survives clear() (a
/// crash): suppressing a retired id is always safe.
class DedupWindow {
 public:
  static constexpr std::int64_t kGcThreshold = 4096;

  /// Record `id`; false if it is below the floor or already recorded. A GC
  /// it triggers raises the floor to `oldest_pending`.
  bool accept(std::int64_t id, std::int64_t oldest_pending);
  /// Forget every recorded id (the floor stays).
  void clear();
  /// Recorded ids at or above the floor.
  std::int64_t entries() const { return count_; }
  std::int64_t floor() const { return floor_; }

 private:
  std::uint64_t& word(std::size_t i) {
    return words_[(head_ + i) & (words_.size() - 1)];
  }
  /// Widen the window to hold `id`'s word, below or above.
  void cover(std::int64_t id);
  void reserve(std::size_t used);
  void raise_floor(std::int64_t floor);

  std::vector<std::uint64_t> words_;  ///< ring; size a power of two
  std::size_t head_ = 0;              ///< ring position of word `lo_ / 64`
  std::size_t used_ = 0;              ///< words in the window
  std::int64_t lo_ = 0;               ///< first id of the window, 64-aligned
  std::int64_t floor_ = 0;
  std::int64_t count_ = 0;
};

/// What an ack resolves besides its own send.
struct AckWait {
  enum class Kind : std::uint8_t { kNone, kReplicate, kMigration };
  Kind kind = Kind::kNone;
  std::int64_t key = -1;  ///< commit key, or the migrating group
};

/// Sender-side state of one pending message.
struct PendingSend {
  net::Message msg;     ///< full copy, re-posted verbatim on timeout
  TimeS rto = 0.0;      ///< delay of the *next* timer to be armed
  int via_worker = -1;  ///< >= 0: retransmit through this worker's sendq
  bool queued = false;  ///< a retransmit item is sitting in the sendq
  AckWait wait;
};

/// The reliable-delivery plane of one cluster: pending sends, their timers
/// and every node's dedup table (see the top of this file).
class Transport {
 public:
  /// The retransmission knobs of ClusterConfig.
  struct Config {
    TimeS min_rto = 0.0;
    double rto_backoff = 2.0;
    TimeS max_rto = 0.0;
    double rto_jitter = 0.0;
    TimeS latency = 0.0;
    BitsPerSec bandwidth = 0.0;
    int n_workers = 0;
    std::uint64_t seed = 0;
  };
  struct Counters {
    obs::Counter& acks_sent;
    obs::Counter& retransmits;
    obs::Counter& timeouts_fired;
    obs::Counter& duplicates_suppressed;
  };
  struct Hooks {
    /// A send with `via_worker >= 0` timed out: put it back on that
    /// worker's send queue. The worker re-posts it and calls arm().
    std::function<void(std::int64_t id, const PendingSend& send)> requeue;
    /// The transport is about to re-post `m` itself.
    std::function<void(const net::Message& m)> retransmit;
  };

  Transport(sim::Simulator& sim, net::Network& net, int nodes,
            const Config& cfg, Counters counters, Hooks hooks);
  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  // --- sender side ---
  /// Give `m` the next msg id and keep it pending. No timer yet: a worker
  /// calls arm() once the message is on the wire.
  std::int64_t track(net::Message& m, int via_worker, AckWait wait = {});
  /// Track `m`, post it and arm its timer.
  void send(net::Message m, AckWait wait = {});
  /// Arm the next retransmit timer of `id`, if it is still pending.
  void arm(std::int64_t id);
  PendingSend* find(std::int64_t id) { return pending_.find(id); }
  /// Retire `id`'s send on its ack and return what it was waiting on (a
  /// repeated ack finds nothing and returns a kNone wait).
  AckWait ack(std::int64_t id);
  /// `node`'s process died: its dedup memory and every send it had pending
  /// go with it and, when it never returns (`forever`), so does every send
  /// addressed to it. Each dropped send's wait goes to `resolve`, oldest
  /// msg id first.
  void peer_gone(int node, bool forever,
                 const std::function<void(const AckWait&)>& resolve);

  // --- receiver side ---
  /// Ack a tracked arrival at `node` and deduplicate it. False when `m` is
  /// a duplicate that must not reach the protocol. Only tracked messages
  /// carry a msg id; the rest pass untouched.
  bool accept(int node, const net::Message& m) {
    return m.msg_id < 0 || accept_tracked(node, m);
  }

  // --- introspection ---
  std::int64_t in_flight() const {
    return static_cast<std::int64_t>(pending_.size());
  }
  std::int64_t dedup_entries(int node) const {
    return seen_[static_cast<std::size_t>(node)].entries();
  }
  std::int64_t dedup_floor(int node) const {
    return seen_[static_cast<std::size_t>(node)].floor();
  }

 private:
  TimeS initial_rto(const net::Message& m) const;
  void on_timeout(std::int64_t id);
  bool accept_tracked(int node, const net::Message& m);

  net::Network& net_;
  Config cfg_;
  Counters counters_;
  Hooks hooks_;
  PendingRing<PendingSend> pending_;
  std::vector<DedupWindow> seen_;  ///< per node
  TimerQueue timers_;
  Rng rto_rng_;  ///< consumed only when rto_jitter > 0
};

}  // namespace p3::ps
