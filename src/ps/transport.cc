#include "ps/transport.h"

#include <algorithm>
#include <bit>

namespace p3::ps {

// --- TimerQueue ---

void TimerQueue::arm(std::int64_t id, TimeS dt) {
  const Slot at = sim_.reserve(dt);
  timers_.push_back({at, id});
  std::push_heap(timers_.begin(), timers_.end(), later);
  if (wakeups_.empty() || at < wakeups_.back()) wake_at(at);
}

void TimerQueue::wake_at(Slot at) {
  wakeups_.push_back(at);
  sim_.schedule_reserved(at, [this] { wake(); });
}

void TimerQueue::pop_front() {
  std::pop_heap(timers_.begin(), timers_.end(), later);
  timers_.pop_back();
}

void TimerQueue::discard_dead() {
  while (!timers_.empty() && !live_(timers_.front().id)) pop_front();
}

void TimerQueue::wake() {
  // Wakeups run in slot order, so this is the earliest pending one, and
  // every live timer's slot is at or after it.
  const Slot at = wakeups_.back();
  wakeups_.pop_back();
  discard_dead();
  if (!timers_.empty() && timers_.front().at == at) {
    const std::int64_t id = timers_.front().id;
    pop_front();
    fire_(id);
  } else {
    ++idle_wakeups_;  // its timer died after the wakeup was scheduled
  }
  cover_front();
}

void TimerQueue::cover_front() {
  discard_dead();
  if (!timers_.empty() &&
      (wakeups_.empty() || timers_.front().at < wakeups_.back())) {
    wake_at(timers_.front().at);
  }
}

// --- DedupWindow ---

bool DedupWindow::accept(std::int64_t id, std::int64_t oldest_pending) {
  if (id < floor_) return false;
  cover(id);
  std::uint64_t& w = word(static_cast<std::size_t>((id - lo_) / 64));
  const std::uint64_t bit = std::uint64_t{1} << ((id - lo_) % 64);
  if ((w & bit) != 0) return false;
  w |= bit;
  if (++count_ >= kGcThreshold) raise_floor(oldest_pending);
  return true;
}

void DedupWindow::clear() {
  for (std::size_t i = 0; i < used_; ++i) word(i) = 0;
  used_ = 0;
  count_ = 0;
}

void DedupWindow::cover(std::int64_t id) {
  // Words outside the window are kept zero, so widening needs no writes.
  const std::int64_t start = id - id % 64;
  if (used_ == 0) {
    reserve(1);
    lo_ = start;
    used_ = 1;
  } else if (start < lo_) {
    const auto more = static_cast<std::size_t>((lo_ - start) / 64);
    reserve(used_ + more);
    head_ = (head_ - more) & (words_.size() - 1);
    lo_ = start;
    used_ += more;
  } else if (start >= lo_ + 64 * static_cast<std::int64_t>(used_)) {
    const auto need = static_cast<std::size_t>((start - lo_) / 64) + 1;
    reserve(need);
    used_ = need;
  }
}

void DedupWindow::reserve(std::size_t used) {
  if (used <= words_.size()) return;
  std::vector<std::uint64_t> wider(
      std::bit_ceil(std::max<std::size_t>(used, 4)));
  for (std::size_t i = 0; i < used_; ++i) wider[i] = word(i);
  words_ = std::move(wider);
  head_ = 0;
}

void DedupWindow::raise_floor(std::int64_t floor) {
  // Every id below the oldest still-pending send is final: its sender
  // either got the ack or gave up for good, so no copy of it can be posted
  // again. Anything still retransmitting pins the floor.
  if (floor <= floor_) return;
  floor_ = floor;
  while (used_ > 0 && lo_ + 64 <= floor) {
    std::uint64_t& w = word(0);
    count_ -= std::popcount(w);
    w = 0;
    head_ = (head_ + 1) & (words_.size() - 1);
    lo_ += 64;
    --used_;
  }
  if (used_ > 0 && lo_ < floor) {
    const std::uint64_t below = (std::uint64_t{1} << (floor - lo_)) - 1;
    std::uint64_t& w = word(0);
    count_ -= std::popcount(w & below);
    w &= ~below;
  }
}

// --- Transport ---

Transport::Transport(sim::Simulator& sim, net::Network& net, int nodes,
                     const Config& cfg, Counters counters, Hooks hooks)
    : net_(net),
      cfg_(cfg),
      counters_(counters),
      hooks_(std::move(hooks)),
      seen_(static_cast<std::size_t>(nodes)),
      timers_(
          sim,
          [this](std::int64_t id) { return pending_.find(id) != nullptr; },
          [this](std::int64_t id) { on_timeout(id); }),
      rto_rng_(cfg.seed ^ 0x9e3779b97f4a7c15ULL) {}

TimeS Transport::initial_rto(const net::Message& m) const {
  // Generous floor: a round trip plus one full serialization of this
  // message per incast participant (n pushes can queue ahead of it at the
  // server's RX channel). A spurious timeout is safe — dedup makes
  // retransmission idempotent — but wastes wire bytes, so err high and let
  // exponential backoff absorb real congestion.
  return cfg_.min_rto + 2.0 * cfg_.latency +
         static_cast<double>(cfg_.n_workers + 2) *
             transfer_time(m.bytes, cfg_.bandwidth);
}

std::int64_t Transport::track(net::Message& m, int via_worker, AckWait wait) {
  m.msg_id = pending_.next_id();
  PendingSend send;
  send.msg = m;
  send.rto = initial_rto(m);
  send.via_worker = via_worker;
  send.wait = wait;
  return pending_.push(send);
}

void Transport::send(net::Message m, AckWait wait) {
  const std::int64_t id = track(m, -1, wait);
  net_.post(m);
  arm(id);
}

void Transport::arm(std::int64_t id) {
  const PendingSend* send = pending_.find(id);
  if (send == nullptr) return;  // acked while it was on the wire
  TimeS delay = send->rto;
  if (cfg_.rto_jitter > 0.0) {
    delay += delay * cfg_.rto_jitter * rto_rng_.uniform();
  }
  timers_.arm(id, delay);
}

void Transport::on_timeout(std::int64_t id) {
  PendingSend& send = *pending_.find(id);  // timers fire only for pending sends
  ++counters_.timeouts_fired;
  // Exponential backoff to a bounded ceiling: a node down for seconds keeps
  // being probed at max_rto rate instead of the timer doubling away.
  send.rto = std::min(send.rto * cfg_.rto_backoff, cfg_.max_rto);
  if (send.via_worker >= 0) {
    if (send.queued) return;  // defensive: already awaiting the sender
    send.queued = true;
    // No timer while queued; the sender arms one when the copy hits the
    // wire, so send-queue backlog never counts against the RTO.
    hooks_.requeue(id, send);
    return;
  }
  ++counters_.retransmits;
  hooks_.retransmit(send.msg);
  net_.post(send.msg);
  arm(id);
}

AckWait Transport::ack(std::int64_t id) {
  const std::optional<PendingSend> send = pending_.take(id);
  return send ? send->wait : AckWait{};
}

void Transport::peer_gone(int node, bool forever,
                          const std::function<void(const AckWait&)>& resolve) {
  seen_[static_cast<std::size_t>(node)].clear();
  // Oldest first. Sends `resolve` posts take ids past `end`; none of them
  // is from or (when `forever`) to `node`.
  const std::int64_t end = pending_.next_id();
  for (std::int64_t id = pending_.oldest(); id < end; ++id) {
    const PendingSend* send = pending_.find(id);
    if (send == nullptr) continue;
    if (send->msg.src != node && !(forever && send->msg.dst == node)) {
      continue;
    }
    const AckWait wait = send->wait;
    pending_.take(id);
    resolve(wait);
  }
}

bool Transport::accept_tracked(int node, const net::Message& m) {
  // The sender decides: every tracked message must be acked — commit_round
  // tracks kReplicate copies even when the loss-recovery layer itself is
  // disarmed (fault-free runs with replication > 1 still need the commit
  // barrier to come down).
  //
  // Always ack, even duplicates: the previous ack may itself have been
  // dropped, and the sender keeps retransmitting until one gets through.
  net::Message ack;
  ack.src = node;
  ack.dst = m.src;
  ack.kind = net::MsgKind::kAck;
  ack.slice = m.slice;
  ack.layer = m.layer;
  ack.worker = m.worker;
  ack.msg_id = m.msg_id;
  ack.bytes = net::kAckBytes;
  net_.post(ack);
  ++counters_.acks_sent;
  if (!seen_[static_cast<std::size_t>(node)].accept(m.msg_id,
                                                    pending_.oldest())) {
    ++counters_.duplicates_suppressed;
    return false;
  }
  return true;
}

}  // namespace p3::ps
