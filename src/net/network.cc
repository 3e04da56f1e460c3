#include "net/network.h"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <string>

namespace p3::net {

Network::Network(sim::Simulator& sim, int n_nodes, NetworkConfig config)
    : sim_(&sim), config_(config) {
  if (n_nodes <= 0) throw std::invalid_argument("need at least one node");
  if (config.rate <= 0 || config.loopback_rate <= 0) {
    throw std::invalid_argument("non-positive link rate");
  }
  Nic nic;
  nic.tx_rate = config.rate;
  nic.rx_rate = config.rx_rate > 0 ? config.rx_rate : config.rate;
  nics_.resize(static_cast<std::size_t>(n_nodes), nic);
  inboxes_.reserve(static_cast<std::size_t>(n_nodes));
  for (int i = 0; i < n_nodes; ++i) {
    inboxes_.push_back(std::make_unique<sim::Queue<MessageHandle>>(sim));
  }
  if (config.topology.active()) {
    topo_ = config.topology;
    topo_.validate(n_nodes);
    hier_ = true;
    rack_of_.assign(static_cast<std::size_t>(n_nodes), -1);
    nic_links_.resize(static_cast<std::size_t>(n_nodes));
    up_ports_.resize(static_cast<std::size_t>(topo_.n_racks()));
    down_ports_.resize(static_cast<std::size_t>(topo_.n_racks()));
    for (int r = 0; r < topo_.n_racks(); ++r) {
      const auto& members = topo_.racks[static_cast<std::size_t>(r)];
      for (int node : members) rack_of_[static_cast<std::size_t>(node)] = r;
      // Uplink capacity: the members' aggregate NIC rate divided by the
      // oversubscription ratio (all NICs start at config.rate), unless an
      // explicit tier rate is given. Downlink mirrors the uplink.
      const BitsPerSec cap =
          topo_.uplink_rate.has_value()
              ? *topo_.uplink_rate
              : config.rate * static_cast<double>(members.size()) /
                    topo_.oversubscription;
      SwitchPort& up = up_ports_[static_cast<std::size_t>(r)];
      SwitchPort& down = down_ports_[static_cast<std::size_t>(r)];
      up.rate = cap;
      up.out.to = Hop::kDownlink;
      down.rate = cap;
      down.out.to = Hop::kRx;
    }
  }
}

Network::~Network() {
  // Queued handles return their slots to free_, so the inboxes go first.
  inboxes_.clear();
}

TimeS Network::post(const Message& m) {
  if (m.src < 0 || m.src >= nodes() || m.dst < 0 || m.dst >= nodes()) {
    throw std::out_of_range("message endpoint out of range");
  }
  if (m.bytes <= 0) throw std::invalid_argument("message with no bytes");
  if (hier_ && m.src != m.dst) return post_hier(m);

  ++posted_;
  bytes_posted_ += m.bytes;
  const TimeS now = sim_->now();
  TimeS deliver_at;
  TimeS tx_end;
  DeliveryStream* stream = nullptr;

  if (m.src == m.dst) {
    // Colocated processes: loopback channel, no NIC involvement.
    Nic& nic = nics_[static_cast<std::size_t>(m.src)];
    const TimeS start = std::max(now, nic.loop_free);
    tx_end = start + transfer_time(m.bytes, config_.loopback_rate);
    nic.loop_free = tx_end;
    deliver_at = tx_end + config_.loopback_latency;
    stream = &nic.loop;
  } else {
    bytes_remote_ += m.bytes;
    Nic& src = nics_[static_cast<std::size_t>(m.src)];
    Nic& dst = nics_[static_cast<std::size_t>(m.dst)];
    TimeS earliest_tx = now;
    BitsPerSec tx_rate = src.tx_rate;
    TimeS latency = config_.latency;
    if (faults_ != nullptr) {
      // A paused node's NIC is frozen: nothing starts serializing until the
      // pause releases. Degradation (bandwidth dip + latency spike) is
      // evaluated at the moment this message enters the wire.
      earliest_tx = faults_->pause_release(m.src, now);
    }
    const TimeS tx_start = std::max(earliest_tx, src.tx_free);
    if (faults_ != nullptr) {
      tx_rate *= faults_->bandwidth_factor(m.src, tx_start);
      latency += faults_->extra_latency(m.src, tx_start);
    }
    tx_end = tx_start + transfer_time(m.bytes, tx_rate);
    src.tx_free = tx_end;

    if (monitor_ != nullptr) {
      monitor_->record(m.src, Direction::kOut, tx_start, tx_end, m.bytes);
    }
    const bool traced = tracer_ != nullptr && tracer_->enabled();
    if (traced) trace_nic(m.src, kTxLane, tx_start, tx_end, m);

    if (faults_ != nullptr &&
        (faults_->should_drop(m, tx_start) || faults_->crashed(m.src, tx_start))) {
      // Lost in the fabric: the sender paid TX, the receiver never sees it.
      // A crashed sender's NIC emits nothing, but retransmission timers
      // armed before the crash can still try to post on its behalf — those
      // bits die here too.
      ++dropped_;
      bytes_dropped_ += m.bytes;
      if (traced) trace_nic(m.src, kDropLane, tx_start, tx_end, m);
      return tx_end;
    }

    TimeS rx_earliest = tx_end + latency;
    if (faults_ != nullptr) {
      rx_earliest = faults_->pause_release(m.dst, rx_earliest);
    }
    const TimeS rx_start = std::max(rx_earliest, dst.rx_free);
    const TimeS rx_end = rx_start + transfer_time(m.bytes, dst.rx_rate);

    if (faults_ != nullptr && faults_->down_during(m.dst, rx_start, rx_end)) {
      // The receiver is (or goes) down while this transfer would serialize
      // on its NIC: the in-flight transfer is torn down with the process.
      // The RX channel is not reserved — a dead NIC serves nobody.
      ++dropped_;
      bytes_dropped_ += m.bytes;
      if (traced) trace_nic(m.dst, kDropLane, rx_start, rx_end, m);
      return tx_end;
    }

    if (faults_ != nullptr &&
        faults_->severed_during(m.src, m.dst, rx_start, rx_end)) {
      // The fabric cleaves while this transfer is still serializing toward
      // the receiver: the cut tears it down mid-flight. (A cut active at TX
      // time was already caught in should_drop; this handles transfers that
      // left the sender before the partition started.)
      ++dropped_;
      bytes_dropped_ += m.bytes;
      if (traced) trace_nic(m.dst, kDropLane, rx_start, rx_end, m);
      return tx_end;
    }

    dst.rx_free = rx_end;
    deliver_at = rx_end;
    stream = &dst.rx;

    if (monitor_ != nullptr) {
      monitor_->record(m.dst, Direction::kIn, rx_start, rx_end, m.bytes);
    }
    if (traced) {
      trace_nic(m.dst, kRxLane, rx_start, rx_end, m);
      if (m.trace_id >= 0) trace_flow(m, tx_start, rx_start);
    }
  }

  schedule_delivery(*stream, deliver_at, acquire(m));
  return tx_end;
}

TimeS Network::post_hier(const Message& m) {
  ++posted_;
  bytes_posted_ += m.bytes;
  bytes_remote_ += m.bytes;
  const TimeS now = sim_->now();
  Nic& src = nics_[static_cast<std::size_t>(m.src)];

  // Hop 1: serialize on the source NIC toward its ToR. Same fault hooks as
  // the flat path — pauses freeze the NIC, degradations shape this first
  // hop, drops and sender crashes kill the bits before they reach the ToR.
  TimeS earliest_tx = now;
  BitsPerSec tx_rate = src.tx_rate;
  TimeS hop_latency = topo_.tor_latency;
  if (faults_ != nullptr) earliest_tx = faults_->pause_release(m.src, now);
  const TimeS tx_start = std::max(earliest_tx, src.tx_free);
  if (faults_ != nullptr) {
    tx_rate *= faults_->bandwidth_factor(m.src, tx_start);
    hop_latency += faults_->extra_latency(m.src, tx_start);
  }
  const TimeS tx_end = tx_start + transfer_time(m.bytes, tx_rate);
  src.tx_free = tx_end;

  if (monitor_ != nullptr) {
    monitor_->record(m.src, Direction::kOut, tx_start, tx_end, m.bytes);
  }
  const bool traced = tracer_ != nullptr && tracer_->enabled();
  if (traced) trace_nic(m.src, kTxLane, tx_start, tx_end, m);

  if (faults_ != nullptr &&
      (faults_->should_drop(m, tx_start) || faults_->crashed(m.src, tx_start))) {
    ++dropped_;
    bytes_dropped_ += m.bytes;
    if (traced) trace_nic(m.src, kDropLane, tx_start, tx_end, m);
    return tx_end;
  }

  Message* slot = acquire(m);
  if (traced && slot->trace_id >= 0) {
    const std::int64_t flow = next_flow_++;
    tracer_->flow_start(nic_lane(slot->src, kTxLane), tx_start, flow,
                        message_label_id(*tracer_, *slot));
    hier_flows_.emplace(slot, flow);
  }
  NicLinks& links = nic_links_[static_cast<std::size_t>(slot->src)];
  if (rack_of_[static_cast<std::size_t>(slot->src)] ==
      rack_of_[static_cast<std::size_t>(slot->dst)]) {
    // Intra-rack: the ToR forwards at line rate (non-blocking crossbar for
    // local traffic) — one hop in, one hop out, no shared-port queueing.
    send_hop(links.to_peers, tx_end + hop_latency + topo_.tor_latency, slot);
  } else {
    send_hop(links.to_uplink, tx_end + hop_latency, slot);
  }
  return tx_end;
}

void Network::send_hop(Link& link, TimeS t, Message* msg) {
  const sim::Simulator::Reservation at = sim_->reserve_at(t);
  DeliveryStream& hops = link.hops;
  if (hops.size > 0 && at.time < hops.back().at.time) {
    // A degradation window's extra latency ended between the link's tail
    // and this hop, so this one lands first: it takes its own event, in
    // the slot it just claimed, and the link stays in (time, seq) order.
    sim_->schedule_reserved(at, HopFn{this, msg, link.to});
    return;
  }
  hops.push({at, msg});
  if (hops.size == 1) sim_->schedule_reserved(at, LinkHeadFn{this, &link});
}

void Network::link_head(Link& link) {
  DeliveryStream& hops = link.hops;
  Message* msg = hops.front().msg;
  hops.pop();
  if (hops.size > 0) {
    sim_->schedule_reserved(hops.front().at, LinkHeadFn{this, &link});
  }
  land(link.to, msg);
}

void Network::land(Hop to, Message* msg) {
  switch (to) {
    case Hop::kUplink:
      port_enqueue(rack_of_[static_cast<std::size_t>(msg->src)], true, msg);
      return;
    case Hop::kDownlink:
      port_enqueue(rack_of_[static_cast<std::size_t>(msg->dst)], false, msg);
      return;
    case Hop::kRx:
      arrive_rx(msg);
      return;
  }
}

void Network::port_enqueue(int rack, bool up, Message* msg) {
  SwitchPort& p = port(rack, up);
  if (!p.busy) {
    port_start(rack, up, msg);
    return;
  }
  p.queue.push(msg);
  p.peak_queue =
      std::max(p.peak_queue, static_cast<std::int64_t>(p.queue.size()));
  if (tracer_ != nullptr && tracer_->enabled()) {
    tracer_->counter(port_lane(rack, up, true), sim_->now(),
                     static_cast<double>(p.queue.size()));
  }
}

void Network::port_start(int rack, bool up, Message* msg) {
  SwitchPort& p = port(rack, up);
  p.busy = true;
  const TimeS start = sim_->now();
  const TimeS end = start + transfer_time(msg->bytes, p.rate);
  p.bytes += msg->bytes;
  p.busy_time += end - start;
  if (tracer_ != nullptr && tracer_->enabled()) {
    tracer_->span(port_lane(rack, up, false), start, end,
                  message_label_id(*tracer_, *msg));
  }
  sim_->schedule_at(end, [this, rack, up, msg] { port_done(rack, up, msg); });
}

void Network::port_done(int rack, bool up, Message* msg) {
  SwitchPort& p = port(rack, up);
  p.busy = false;
  // Hand the finished transfer to the next tier: the spine carries it to
  // the destination rack's downlink, the downlink's ToR to the NIC.
  send_hop(p.out,
           sim_->now() + (up ? topo_.spine_latency : topo_.tor_latency), msg);
  if (p.queue.empty()) return;
  // Strict (priority, arrival) order, or pure arrival order under the FIFO
  // ablation; the pop also judges the two scheduling counters.
  const PortQueue::Pop next = p.queue.pop(topo_.fifo_ports);
  overtakes_ += next.overtook ? 1 : 0;
  inversions_ += next.inverted ? 1 : 0;
  port_start(rack, up, next.msg);
}

void Network::arrive_rx(Message* msg) {
  const TimeS now = sim_->now();
  Nic& dst = nics_[static_cast<std::size_t>(msg->dst)];
  TimeS rx_earliest = now;
  if (faults_ != nullptr) rx_earliest = faults_->pause_release(msg->dst, now);
  const TimeS rx_start = std::max(rx_earliest, dst.rx_free);
  const TimeS rx_end = rx_start + transfer_time(msg->bytes, dst.rx_rate);

  if (faults_ != nullptr &&
      (faults_->down_during(msg->dst, rx_start, rx_end) ||
       faults_->severed_during(msg->src, msg->dst, rx_start, rx_end))) {
    drop_at_rx(msg, rx_start, rx_end);
    return;
  }

  dst.rx_free = rx_end;
  std::int64_t flow = -1;
  if (!hier_flows_.empty()) {
    const auto it = hier_flows_.find(msg);
    if (it != hier_flows_.end()) {
      flow = it->second;
      hier_flows_.erase(it);
    }
  }
  if (monitor_ != nullptr) {
    monitor_->record(msg->dst, Direction::kIn, rx_start, rx_end, msg->bytes);
  }
  if (tracer_ != nullptr && tracer_->enabled()) {
    trace_nic(msg->dst, kRxLane, rx_start, rx_end, *msg);
    if (flow >= 0) {
      tracer_->flow_end(nic_lane(msg->dst, kRxLane), rx_start, flow,
                        message_label_id(*tracer_, *msg));
    }
  }
  schedule_delivery(dst.rx, rx_end, msg);
}

void Network::drop_at_rx(Message* msg, TimeS rx_start, TimeS rx_end) {
  ++dropped_;
  bytes_dropped_ += msg->bytes;
  if (tracer_ != nullptr && tracer_->enabled()) {
    trace_nic(msg->dst, kDropLane, rx_start, rx_end, *msg);
  }
  release(msg);
}

std::uint32_t Network::nic_lane(int node, NicLane lane) {
  static constexpr const char* kSuffix[] = {".tx", ".rx", ".drop"};
  return tracer_->track(
      obs::KeySpace::kNicLane, static_cast<std::size_t>(node) * 3 + lane,
      [&] { return "n" + std::to_string(node) + kSuffix[lane]; });
}

std::uint32_t Network::port_lane(int rack, bool up, bool queue) {
  const std::size_t key =
      static_cast<std::size_t>(rack) * 4 + (up ? 0 : 2) + (queue ? 1 : 0);
  return tracer_->track(obs::KeySpace::kPortLane, key, [&] {
    return "r" + std::to_string(rack) + (up ? ".up" : ".dn") +
           (queue ? ".q" : "");
  });
}

void Network::trace_nic(int node, NicLane lane, TimeS t0, TimeS t1,
                        const Message& m) {
  tracer_->span(nic_lane(node, lane), t0, t1,
                message_label_id(*tracer_, m,
                                 lane == kDropLane ? LabelMark::kDropped
                                                   : LabelMark::kNone));
}

void Network::trace_flow(const Message& m, TimeS tx_start, TimeS rx_start) {
  // One arrow per delivered traced message, anchored inside the TX and RX
  // spans recorded before it.
  const std::int64_t flow = next_flow_++;
  const std::uint32_t label = message_label_id(*tracer_, m);
  tracer_->flow_start(nic_lane(m.src, kTxLane), tx_start, flow, label);
  tracer_->flow_end(nic_lane(m.dst, kRxLane), rx_start, flow, label);
}

int Network::rack_of(int node) const {
  if (!hier_) return -1;
  return rack_of_.at(static_cast<std::size_t>(node));
}

Network::RackStats Network::rack_stats(int rack) const {
  const SwitchPort& u = up_ports_.at(static_cast<std::size_t>(rack));
  const SwitchPort& d = down_ports_.at(static_cast<std::size_t>(rack));
  RackStats s;
  s.up_bytes = u.bytes;
  s.down_bytes = d.bytes;
  s.up_peak_queue = u.peak_queue;
  s.down_peak_queue = d.peak_queue;
  s.up_busy = u.busy_time;
  s.down_busy = d.busy_time;
  return s;
}

Bytes Network::tor_uplink_bytes() const {
  Bytes total = 0;
  for (const SwitchPort& p : up_ports_) total += p.bytes;
  return total;
}

Message* Network::acquire(const Message& m) {
  if (free_.empty()) {
    pool_.push_back(m);
    return &pool_.back();
  }
  Message* slot = free_.back();
  free_.pop_back();
  *slot = m;
  return slot;
}

void Network::release(Message* msg) {
  hier_flows_.erase(msg);
  free_.push_back(msg);
}

void PortQueue::push(Message* msg) {
  const std::size_t idx = list_index(msg->priority);
  std::uint32_t n = free_;
  if (n == kNone) {
    n = static_cast<std::uint32_t>(nodes_.size());
    nodes_.emplace_back();
  } else {
    free_ = nodes_[n].next;
  }
  nodes_[n] = Node{msg, msg->priority, kNone, newest_, kNone};
  List& list = lists_[idx];
  if (list.head == kNone) {
    list.head = n;
    bits_[idx / 64] |= std::uint64_t{1} << (idx % 64);
  } else {
    nodes_[list.tail].next = n;
  }
  list.tail = n;
  (newest_ == kNone ? oldest_ : nodes_[newest_].newer) = n;
  newest_ = n;
  ++size_;
}

PortQueue::Pop PortQueue::pop(bool fifo) {
  // Every list is in arrival order, so the oldest transfer heads its list.
  const std::size_t first = first_list();
  const std::uint32_t n = fifo ? oldest_ : lists_[first].head;
  Node& node = nodes_[n];
  const auto idx =
      static_cast<std::size_t>(static_cast<std::int64_t>(node.priority) - lo_);
  const Pop served{node.msg, n != oldest_, first < idx};
  List& list = lists_[idx];
  list.head = node.next;
  if (list.head == kNone) {
    list.tail = kNone;
    bits_[idx / 64] &= ~(std::uint64_t{1} << (idx % 64));
  }
  (node.older == kNone ? oldest_ : nodes_[node.older].newer) = node.newer;
  (node.newer == kNone ? newest_ : nodes_[node.newer].older) = node.older;
  node.next = free_;
  free_ = n;
  --size_;
  return served;
}

std::size_t PortQueue::first_list() const {
  std::size_t word = 0;
  while (bits_[word] == 0) ++word;
  return word * 64 + static_cast<std::size_t>(std::countr_zero(bits_[word]));
}

std::size_t PortQueue::list_index(int priority) {
  if (lists_.empty() || priority < lo_) {
    // A new most-urgent extreme (rare): every list shifts up by the gap and
    // the bitmap is rebuilt from the lists.
    const std::size_t gap =
        lists_.empty() ? 0
                       : static_cast<std::size_t>(
                             static_cast<std::int64_t>(lo_) - priority);
    lists_.insert(lists_.begin(), gap, List{});
    lo_ = priority;
    bits_.assign((lists_.size() + 63) / 64, 0);
    for (std::size_t i = 0; i < lists_.size(); ++i) {
      if (lists_[i].head != kNone) {
        bits_[i / 64] |= std::uint64_t{1} << (i % 64);
      }
    }
  }
  const auto idx =
      static_cast<std::size_t>(static_cast<std::int64_t>(priority) - lo_);
  if (idx >= lists_.size()) {
    lists_.resize(idx + 1);
    bits_.resize(idx / 64 + 1, 0);
  }
  return idx;
}

void Network::DeliveryStream::push(const Item& item) {
  if (size == ring.size()) {
    std::vector<Item> grown(std::max<std::size_t>(8, 2 * ring.size()));
    for (std::size_t i = 0; i < size; ++i) {
      grown[i] = ring[(head + i) & (ring.size() - 1)];
    }
    ring.swap(grown);
    head = 0;
  }
  ring[(head + size) & (ring.size() - 1)] = item;
  ++size;
}

void Network::schedule_delivery(DeliveryStream& stream, TimeS t,
                                Message* msg) {
  const sim::Simulator::Reservation at = sim_->reserve_at(t);
  // Heads run in (time, seq) order only if the stream's items are sorted
  // that way; seqs grow by construction, times because the channel is FIFO.
  if (stream.size > 0 && at.time < stream.back().at.time) {
    throw std::logic_error("delivery stream went back in time");
  }
  stream.push({at, msg});
  if (stream.size == 1) {
    sim_->schedule_reserved(at, DeliverHeadFn{this, &stream});
  }
}

void Network::deliver_head(DeliveryStream& stream) {
  Message* msg = stream.front().msg;
  stream.pop();
  if (stream.size > 0) {
    sim_->schedule_reserved(stream.front().at, DeliverHeadFn{this, &stream});
  }
  deliver(msg);
}

void Network::deliver(Message* msg) {
  ++delivered_;
  if (faults_ != nullptr && msg->src != msg->dst &&
      faults_->partition_severs(msg->src, msg->dst, sim_->now())) {
    // Ground-truth audit, not enforcement: every cut is applied at TX time
    // or during the RX window above, so a delivery that lands inside an
    // active cut means the partition plane leaked. Counted, never dropped —
    // trace_report --partition gates on this staying zero.
    ++cross_partition_deliveries_;
  }
  // The message stays in its slot; the handle returns it when the
  // receiver is done.
  inbox(msg->dst).push(MessageHandle(this, msg));
}

void Network::set_node_rate(int node, BitsPerSec tx_rate,
                            BitsPerSec rx_rate) {
  if (tx_rate <= 0 || rx_rate < 0) {
    throw std::invalid_argument("non-positive link rate");
  }
  auto& nic = nics_.at(static_cast<std::size_t>(node));
  nic.tx_rate = tx_rate;
  if (rx_rate > 0) nic.rx_rate = rx_rate;
}

BitsPerSec Network::node_rate(int node) const {
  return nics_.at(static_cast<std::size_t>(node)).tx_rate;
}

BitsPerSec Network::node_rx_rate(int node) const {
  return nics_.at(static_cast<std::size_t>(node)).rx_rate;
}

TimeS Network::tx_free_at(int node) const {
  const Nic& nic = nics_.at(static_cast<std::size_t>(node));
  return std::max(nic.tx_free, sim_->now());
}

std::string message_label(const Message& m) {
  std::string prefix;
  switch (m.kind) {
    case MsgKind::kPushGradient:
      prefix = "g";  // gradient push
      break;
    case MsgKind::kNotify:
      prefix = "n";
      break;
    case MsgKind::kPullRequest:
      prefix = "q";
      break;
    case MsgKind::kParams:
      prefix = "p";
      break;
    case MsgKind::kBackground:
      return "bg";
    case MsgKind::kAck:
      prefix = "k";  // acknowledgement
      break;
    case MsgKind::kHeartbeat:
      return "hb";
    case MsgKind::kReplicate:
      prefix = "R";  // shard replication
      break;
    case MsgKind::kNewPrimary:
      return "NP";
    case MsgKind::kJoinRequest:
      return "J";
    case MsgKind::kSyncRequest:
      return "sq";
    case MsgKind::kSyncData:
      return "sd";
    case MsgKind::kRecheck:
      return "rc";  // internal; never posted
    case MsgKind::kServerJoin:
      return "SJ";
    case MsgKind::kMigrate:
      prefix = "M";  // shard migration
      break;
    case MsgKind::kRackPush:
      prefix = "a";  // rack-aggregated gradient hop
      break;
    case MsgKind::kRackParams:
      prefix = "P";  // rack param broadcast hop
      break;
  }
  return prefix + "L" + std::to_string(m.layer);
}

std::uint32_t message_label_id(obs::Tracer& tracer, const Message& m,
                               LabelMark mark) {
  // Layers run from -1 (none) up; any other layer is interned by name.
  constexpr std::size_t kKinds = std::size_t{1} << (8 * sizeof(MsgKind));
  constexpr std::size_t kMarks = 3;
  std::size_t key = obs::Tracer::kMaxCachedKey;
  if (m.layer >= -1) {
    const std::size_t layer = static_cast<std::size_t>(m.layer) + 1;
    key = (layer * kKinds + static_cast<std::size_t>(m.kind)) * kMarks +
          static_cast<std::size_t>(mark);
  }
  return tracer.label(obs::KeySpace::kMessageLabel, key, [&] {
    static constexpr const char* kMark[] = {"", "x", "r"};
    return kMark[static_cast<std::size_t>(mark)] + message_label(m);
  });
}

}  // namespace p3::net
