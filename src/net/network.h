// Cluster network substrate.
//
// Models a full-mesh (switched) cluster of `n` machines, each with a
// full-duplex NIC. A message of S bytes from a to b:
//
//   1. serializes on a's TX channel:  [tx_start, tx_start + S/rate_tx)
//   2. propagates for `latency`
//   3. serializes on b's RX channel:  [rx_start, rx_start + S/rate_rx)
//   4. is delivered into b's inbox at rx_end
//
// Channels serve reservations FIFO (tx_start = max(now, channel free time)),
// which is exactly the behaviour of a kernel socket send queue; priority
// scheduling in P3 happens *above* this layer by deciding what to post next,
// as in the paper's producer/consumer design. Messages between colocated
// processes (src == dst) use a per-node loopback channel and never touch the
// NIC. Because both channels are FIFO, the deliveries into one node over one
// channel come out in time order; each such stream gives the simulator's
// event heap only its head, so the heap holds O(nodes) delivery events
// however many messages are in flight. When a delivery leaves its stream,
// the new head's message and the ring slot four items further on are
// prefetched (sim/prefetch.h): the head's event runs much later, and when
// many messages are alive at once its first read of the message would
// otherwise wait on memory.
//
// A posted message is copied once, into a slot of the network's message
// pool, and stays there until the protocol is done with it: the inbox carries
// a move-only `MessageHandle` to the slot, receivers read the message in
// place, and the slot returns to the pool when the last handle to it is
// destroyed. Lifetime rule: the pool must outlive every handle. `~Network`
// destroys its inboxes (and the handles queued in them) before the pool; an
// owner that keeps handles elsewhere — in its own queues or in suspended
// process frames — must destroy those first (ps::Cluster clears the
// simulator's process frames in its destructor).
//
// Per-node rates support heterogeneous clusters and `tc qdisc`-style
// throttling mid-experiment (Section 5.3 uses this to sweep bandwidth).
//
// With an active `Topology` the flat mesh becomes racks behind ToR switches:
// a remote message serializes on the source NIC, hops to its ToR, and — when
// the destination sits in another rack — queues at the shared ToR uplink,
// crosses the spine, queues again at the destination rack's downlink, then
// serializes on the destination NIC. The uplink/downlink ports are served
// one transfer at a time in *priority* order (smaller `Message::priority`
// first; FIFO tie-break on arrival), so P3's slice priority contends at the
// oversubscribed switch port, not just at the sender's NIC. An inactive
// topology (the default) keeps the flat code path untouched.
//
// Every hop of that path costs O(1):
//   * a port's waiting transfers sit in a `PortQueue`: one FIFO list per
//     priority value, a bitmap of the non-empty lists, and one arrival-order
//     list through all of them. A priority pop takes the head of the most
//     urgent list; it overtook exactly when that transfer is not the oldest
//     one waiting (an older one can only be less urgent), and it never
//     inverts. A `fifo_ports` pop takes the oldest; it inverted exactly when
//     a more urgent list is non-empty, and it never overtakes. Both counters
//     are thus read off two list heads instead of a scan of the queue;
//   * every in-order fabric link is a stream like a NIC's deliveries: each
//     NIC's hop into its ToR toward the uplink and toward same-rack peers,
//     and each port's output toward the next tier. A hop claims its event
//     slot when it is produced and only the link's head holds a heap entry,
//     so the heap holds O(nodes + racks) fabric events. A hop that arrives
//     ahead of its link's tail (a degradation window's extra latency ended
//     between the two) runs as its own event in the slot it claimed. Either
//     way every hop runs exactly where a per-hop event would have run.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/units.h"
#include "net/faults.h"
#include "net/message.h"
#include "net/monitor.h"
#include "net/topology.h"
#include "obs/tracer.h"
#include "sim/prefetch.h"
#include "sim/queue.h"
#include "sim/simulator.h"

namespace p3::net {

class Network;

/// The transfers waiting at one switch port. Push, pop and both scheduling
/// judgments are O(1) (a pop finds the most urgent list with one count-
/// trailing-zeros per 64 priority values). Priorities may be any int; the
/// covered range grows (rarely) to take a new extreme.
class PortQueue {
 public:
  /// A transfer taken for service, judged against those still waiting.
  struct Pop {
    Message* msg;
    /// A strictly-less-urgent transfer that arrived earlier still waits.
    bool overtook;
    /// A strictly-more-urgent transfer still waits.
    bool inverted;
  };

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  /// Queue `msg` behind every earlier arrival, ranked by its `priority`.
  void push(Message* msg);
  /// Take the next transfer: the most urgent (oldest first among equals),
  /// or the oldest under `fifo`. The queue must not be empty.
  Pop pop(bool fifo);

 private:
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};
  struct Node {
    Message* msg;
    int priority;
    std::uint32_t next;   ///< next in its priority list, or in the free list
    std::uint32_t older;  ///< arrival-order neighbours
    std::uint32_t newer;
  };
  struct List {
    std::uint32_t head = kNone;
    std::uint32_t tail = kNone;
  };

  /// Index of `priority`'s list, widening the covered range if needed.
  std::size_t list_index(int priority);
  /// Index of the most urgent non-empty list.
  std::size_t first_list() const;

  std::vector<Node> nodes_;
  std::uint32_t free_ = kNone;    ///< recycled nodes, linked through `next`
  std::vector<List> lists_;       ///< lists_[i] holds priority lo_ + i
  std::vector<std::uint64_t> bits_;  ///< non-empty lists
  int lo_ = 0;
  std::uint32_t oldest_ = kNone;  ///< arrival-order list
  std::uint32_t newest_ = kNone;
  std::size_t size_ = 0;
};

/// Move-only reference to a delivered (or parked) message in a Network's
/// pool. Destroying or resetting a non-empty handle returns the slot to the
/// pool; the Network must still be alive then.
class MessageHandle {
 public:
  MessageHandle() noexcept = default;
  MessageHandle(MessageHandle&& other) noexcept
      : net_(other.net_), msg_(std::exchange(other.msg_, nullptr)) {}
  MessageHandle& operator=(MessageHandle&& other) noexcept {
    if (this != &other) {
      reset();
      net_ = other.net_;
      msg_ = std::exchange(other.msg_, nullptr);
    }
    return *this;
  }
  MessageHandle(const MessageHandle&) = delete;
  MessageHandle& operator=(const MessageHandle&) = delete;
  ~MessageHandle() { reset(); }

  const Message& operator*() const { return *msg_; }
  const Message* operator->() const { return msg_; }
  explicit operator bool() const noexcept { return msg_ != nullptr; }

  /// Return the slot to the pool now; the handle becomes empty.
  void reset() noexcept;

 private:
  friend class Network;
  MessageHandle(Network* net, Message* msg) noexcept : net_(net), msg_(msg) {}

  Network* net_ = nullptr;
  Message* msg_ = nullptr;
};

struct NetworkConfig {
  BitsPerSec rate = gbps(10);            ///< per-NIC TX (egress) rate
  /// RX (ingress) rate; 0 = same as `rate`. The paper throttles with
  /// `tc qdisc`, which shapes egress only — set this to the physical line
  /// rate (e.g. 100 Gbps InfiniBand) to reproduce that setup.
  BitsPerSec rx_rate = 0;
  TimeS latency = us(25);                ///< one-way propagation delay
  BitsPerSec loopback_rate = gbps(400);  ///< colocated worker<->server path
  TimeS loopback_latency = us(2);
  /// Rack-scale shape; inactive (flat) by default. Uplink capacities are
  /// derived once at construction from `rate` (or `topology.uplink_rate`),
  /// so later `set_node_rate` calls re-shape NICs only.
  Topology topology;
};

class Network {
 public:
  Network(sim::Simulator& sim, int n_nodes, NetworkConfig config);
  /// Destroys the inboxes first: their handles return slots to the pool.
  ~Network();
  /// Scheduled events hold the network's and its streams' addresses.
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  int nodes() const { return static_cast<int>(nics_.size()); }
  sim::Simulator& simulator() { return *sim_; }
  const NetworkConfig& config() const { return config_; }

  /// Post a message for transmission. Reserves the channels immediately
  /// (FIFO) and schedules delivery into `inbox(dst)`. Returns the time at
  /// which the sender's TX serialization completes — the moment a blocking
  /// send() call would return.
  TimeS post(const Message& m);

  /// Awaitable blocking send: posts and suspends until TX completes.
  auto send(const Message& m) { return sim_->sleep_until(post(m)); }

  /// Destination queues of handles to delivered messages; protocol demux
  /// loops pop from these and read each message in place.
  sim::Queue<MessageHandle>& inbox(int node) {
    return *inboxes_.at(static_cast<std::size_t>(node));
  }

  /// Copy `m` into a pool slot without sending it, for protocol-internal
  /// items that travel through the same queues as delivered messages.
  MessageHandle park(const Message& m) { return {this, acquire(m)}; }

  /// Pool slots ever allocated, and those a message or handle still holds.
  /// Sustained traffic recycles slots, so the first stays bounded by the
  /// peak number of messages alive at once.
  std::size_t pool_slots() const { return pool_.size(); }
  std::size_t pool_in_use() const { return pool_.size() - free_.size(); }

  /// `tc qdisc`-style rate limiting of one node's egress; rx_rate 0 keeps
  /// the node's current ingress rate.
  void set_node_rate(int node, BitsPerSec tx_rate, BitsPerSec rx_rate = 0);
  BitsPerSec node_rate(int node) const;     ///< TX rate
  BitsPerSec node_rx_rate(int node) const;  ///< RX rate

  /// Earliest time the node's TX channel is free (== now when idle).
  TimeS tx_free_at(int node) const;

  /// Optional observers.
  void attach_monitor(UtilizationMonitor* monitor) { monitor_ = monitor; }
  /// Record TX/RX/drop spans (lanes "n<i>.tx" etc.) and, for messages
  /// carrying a trace_id, flow arrows from sender TX to receiver RX.
  void attach_tracer(obs::Tracer* tracer) { tracer_ = tracer; }
  /// Attach a fault injector (nullptr = perfectly reliable wire). Faults
  /// apply to remote messages only; the sender still pays TX serialization
  /// for a dropped message (the bits left the NIC and died in the fabric).
  void attach_faults(FaultInjector* faults) { faults_ = faults; }

  /// Counters for conservation checks in tests.
  std::int64_t messages_posted() const { return posted_; }
  std::int64_t messages_delivered() const { return delivered_; }
  /// Messages lost to injected faults (posted == delivered + dropped once
  /// the simulation quiesces).
  std::int64_t messages_dropped() const { return dropped_; }
  Bytes bytes_posted() const { return bytes_posted_; }
  /// Bytes that actually crossed a NIC (excludes loopback).
  Bytes bytes_posted_remote() const { return bytes_remote_; }
  Bytes bytes_dropped() const { return bytes_dropped_; }
  /// Ground-truth safety audit: deliveries that landed while an attached
  /// fault plan's partition severed their link. The partition plane drops
  /// such messages at TX time or during the RX window, so this must stay 0;
  /// `trace_report --partition` exits 2 if it ever is not.
  std::int64_t cross_partition_deliveries() const {
    return cross_partition_deliveries_;
  }

  // --- hierarchical topology (no-ops / zeros when the topology is flat) ---

  bool topology_active() const { return hier_; }
  const Topology& topology() const { return topo_; }
  int n_racks() const { return topo_.n_racks(); }
  /// Rack holding `node`; -1 on a flat network.
  int rack_of(int node) const;

  /// Times a switch port, on becoming free, served a transfer that was
  /// enqueued *after* a strictly-lower-priority transfer still waiting —
  /// the P3 overtake, observed at switch granularity.
  std::int64_t uplink_overtakes() const { return overtakes_; }
  /// Times a port began serving a transfer while a strictly-higher-priority
  /// transfer sat queued behind it. Zero by construction under priority
  /// service; meaningful under `Topology::fifo_ports`.
  std::int64_t uplink_priority_inversions() const { return inversions_; }

  /// Per-rack switch-tier stats for gauges and tests.
  struct RackStats {
    Bytes up_bytes = 0;            ///< bytes served by the ToR uplink
    Bytes down_bytes = 0;          ///< bytes served by the rack downlink
    std::int64_t up_peak_queue = 0;    ///< peak transfers waiting at uplink
    std::int64_t down_peak_queue = 0;  ///< peak transfers waiting at downlink
    TimeS up_busy = 0;             ///< uplink serving time
    TimeS down_busy = 0;           ///< downlink serving time
  };
  RackStats rack_stats(int rack) const;
  /// Total bytes that crossed any ToR uplink into the spine.
  Bytes tor_uplink_bytes() const;

 private:
  /// Deliveries into one node over one channel (remote RX or loopback), in
  /// delivery order. The channel serves transfers FIFO, so their delivery
  /// times never decrease: only the head holds a simulator event, and each
  /// later delivery is scheduled into the slot it reserved when its channel
  /// time was booked, exactly where a per-message event would have run.
  /// A fabric `Link` keeps its hops in one of these too.
  struct DeliveryStream {
    struct Item {
      sim::Simulator::Reservation at;
      Message* msg;
    };
    std::vector<Item> ring;  ///< power-of-two capacity, allocated on first use
    std::size_t head = 0;
    std::size_t size = 0;

    Item& front() { return ring[head]; }
    Item& back() { return ring[(head + size - 1) & (ring.size() - 1)]; }
    void push(const Item& item);
    /// Drop the head. The new head's message is read when its event runs,
    /// and the ring is read in order, so that message and the slot
    /// kPrefetchAhead items further on are fetched now.
    void pop() {
      head = (head + 1) & (ring.size() - 1);
      --size;
      if (size > 0) {
        sim::prefetch(ring[head].msg);
        sim::prefetch(&ring[(head + kPrefetchAhead) & (ring.size() - 1)]);
      }
    }

    static constexpr std::size_t kPrefetchAhead = 4;
  };

  struct Nic {
    BitsPerSec tx_rate;
    BitsPerSec rx_rate;
    TimeS tx_free = 0.0;
    TimeS rx_free = 0.0;
    TimeS loop_free = 0.0;
    DeliveryStream rx;    ///< remote messages, in RX-channel order
    DeliveryStream loop;  ///< colocated messages, in loopback order
  };

  /// Stream-head event: 16 bytes, fits EventFn's inline buffer.
  struct DeliverHeadFn {
    Network* net;
    DeliveryStream* stream;
    void operator()() const { net->deliver_head(*stream); }
  };

  friend class MessageHandle;

  /// Copy `m` into the pool (pointers stable, slots recycled once the last
  /// handle lets go — sustained traffic does no per-message allocation).
  Message* acquire(const Message& m);
  /// Return a dropped message's slot (and any flow id it held).
  void release(Message* msg);
  void recycle(Message* msg) { free_.push_back(msg); }
  /// Queue `msg` for delivery at `t` behind the stream's earlier items.
  void schedule_delivery(DeliveryStream& stream, TimeS t, Message* msg);
  void deliver_head(DeliveryStream& stream);
  void deliver(Message* msg);

  /// Where a fabric hop lands: the source rack's uplink port, the
  /// destination rack's downlink port, or the destination NIC.
  enum class Hop : std::uint8_t { kUplink, kDownlink, kRx };

  /// One in-order fabric link and where its hops land.
  struct Link {
    DeliveryStream hops;
    Hop to = Hop::kRx;
  };

  /// Link-head event: 16 bytes, fits EventFn's inline buffer.
  struct LinkHeadFn {
    Network* net;
    Link* link;
    void operator()() const { net->link_head(*link); }
  };
  /// A hop that arrives ahead of its link's tail, as its own event.
  struct HopFn {
    Network* net;
    Message* msg;
    Hop to;
    void operator()() const { net->land(to, msg); }
  };

  /// A NIC's two links into its ToR. A same-rack hop lands one ToR crossing
  /// later than an uplink hop sent with it, so in one stream the two kinds
  /// would land out of order.
  struct NicLinks {
    Link to_uplink{{}, Hop::kUplink};
    Link to_peers{{}, Hop::kRx};
  };

  /// One shared ToR uplink or rack downlink: serves one transfer at a time,
  /// picking the next by (priority, arrival) — or pure arrival order under
  /// `Topology::fifo_ports` — and hands each finished one to the next tier
  /// over `out`.
  struct SwitchPort {
    BitsPerSec rate = 0;
    bool busy = false;
    PortQueue queue;
    Link out;
    Bytes bytes = 0;
    std::int64_t peak_queue = 0;
    TimeS busy_time = 0;
  };

  /// Multi-hop path for remote messages on an active topology. Same fault
  /// model as the flat path: drop/crash evaluated at source TX, pause/down/
  /// severed at the destination RX window.
  TimeS post_hier(const Message& m);
  /// Send `msg` over `link` to land at `t`.
  void send_hop(Link& link, TimeS t, Message* msg);
  void link_head(Link& link);
  void land(Hop to, Message* msg);
  void port_enqueue(int rack, bool up, Message* msg);
  void port_start(int rack, bool up, Message* msg);
  void port_done(int rack, bool up, Message* msg);
  void arrive_rx(Message* msg);
  SwitchPort& port(int rack, bool up) {
    return (up ? up_ports_ : down_ports_)[static_cast<std::size_t>(rack)];
  }
  void drop_at_rx(Message* msg, TimeS rx_start, TimeS rx_end);

  // Trace recording. Kept out of line, so each traced branch of post() is
  // one call and the untraced path stays compact.
  enum NicLane : int { kTxLane, kRxLane, kDropLane };
  std::uint32_t nic_lane(int node, NicLane lane);
  std::uint32_t port_lane(int rack, bool up, bool queue);
  /// `m`'s span on a NIC lane; a drop lane marks the label 'x'.
  [[gnu::noinline]] void trace_nic(int node, NicLane lane, TimeS t0, TimeS t1,
                                   const Message& m);
  /// Flat-path arrow from the sender's TX span to the receiver's RX span.
  [[gnu::noinline]] void trace_flow(const Message& m, TimeS tx_start,
                                    TimeS rx_start);

  sim::Simulator* sim_;
  NetworkConfig config_;
  std::vector<Nic> nics_;
  std::vector<std::unique_ptr<sim::Queue<MessageHandle>>> inboxes_;
  std::deque<Message> pool_;     ///< in-flight and delivered message slots
  std::vector<Message*> free_;   ///< recycled pool slots
  UtilizationMonitor* monitor_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
  FaultInjector* faults_ = nullptr;
  std::int64_t next_flow_ = 0;  ///< flow-arrow ids for traced messages
  // Hierarchical-topology state; empty/false on a flat network.
  bool hier_ = false;
  Topology topo_;
  std::vector<int> rack_of_;  ///< node -> rack
  std::vector<NicLinks> nic_links_;  ///< node -> its links into its ToR
  std::vector<SwitchPort> up_ports_;
  std::vector<SwitchPort> down_ports_;
  std::int64_t overtakes_ = 0;
  std::int64_t inversions_ = 0;
  /// Flow-arrow ids for traced in-flight messages on the multi-hop path
  /// (the flat path emits both ends inside post()).
  std::unordered_map<const Message*, std::int64_t> hier_flows_;
  std::int64_t posted_ = 0;
  std::int64_t delivered_ = 0;
  std::int64_t dropped_ = 0;
  std::int64_t cross_partition_deliveries_ = 0;
  Bytes bytes_posted_ = 0;
  Bytes bytes_remote_ = 0;
  Bytes bytes_dropped_ = 0;
};

inline void MessageHandle::reset() noexcept {
  if (msg_ != nullptr) net_->recycle(std::exchange(msg_, nullptr));
}

/// Human-readable label for timeline spans ("push L3", "param L1", ...).
std::string message_label(const Message& m);

/// Mark in front of a message label: "x" for a copy lost in the fabric, "r"
/// for a retransmission.
enum class LabelMark : std::uint8_t { kNone, kDropped, kRetransmit };

/// Id of `mark` + message_label(m) in `tracer`'s label table, resolved through
/// the tracer's id cache.
std::uint32_t message_label_id(obs::Tracer& tracer, const Message& m,
                               LabelMark mark = LabelMark::kNone);

}  // namespace p3::net
