// Heartbeat-driven failure detection and shard leadership.
//
// Every node in the cluster gossips fixed-size heartbeat beacons on the
// ordinary message plane (no side channel: beacons compete for NIC time
// like any other traffic). Each node feeds the beacons it receives into its
// own `Membership` view — a simplified phi-accrual detector collapsed to a
// single deterministic threshold over the simulated clock: a peer whose
// silence exceeds `suspicion_timeout` transitions to *dead*; a later beacon
// (the peer was merely slow, or it restarted with a higher incarnation)
// transitions it back to *alive*. Views are per-node and independent: two
// observers may disagree transiently, exactly like production detectors,
// and the protocol layers above are built to converge despite that.
//
// `ShardLeadership` is the failover half: each shard group (a server shard
// and its R-1 chain replicas) has a monotonically increasing leadership
// epoch. Leadership changes only by announcement (`kNewPrimary` messages in
// ps::Cluster); `adopt` enforces monotonicity so stale announcements and
// out-of-order deliveries cannot move a view backwards, and equal-epoch
// conflicts (two backups claiming succession after a cascade of failures)
// deterministically resolve toward the later chain offset.
//
// Everything here is plain state driven by the simulator clock — no events
// are scheduled and no randomness is consumed. ps::Cluster gives every node
// both views; without the membership plane nothing moves them.
#pragma once

#include <cstdint>
#include <vector>

#include "common/units.h"

namespace p3::ps {

struct MembershipConfig {
  int n_nodes = 0;
  /// Beacon interval; every node broadcasts one heartbeat per period.
  TimeS heartbeat_period = ms(5);
  /// Silence threshold: a peer unheard for longer than this is suspected
  /// dead. Must comfortably exceed `heartbeat_period` (several consecutive
  /// beacons must be lost before suspicion) or wire loss alone produces
  /// false failovers.
  TimeS suspicion_timeout = ms(50);
};

/// One node's local liveness view of every peer.
class Membership {
 public:
  /// What one received beacon did to the view (record_heartbeat result).
  struct BeaconEffect {
    /// The peer was suspected dead and this beacon revived it.
    bool revived = false;
    /// The beacon carries a *higher* incarnation than a peer still believed
    /// alive: the old process died and its successor is up before the
    /// silence detector ever noticed. Supersession must be treated as an
    /// immediate death+revival by the layers above (leases held by the old
    /// incarnation are void now, not after a silence threshold).
    bool superseded = false;
  };

  Membership(const MembershipConfig& config, int self);

  int self() const { return self_; }
  int n_nodes() const { return static_cast<int>(peers_.size()); }

  /// Feed one received beacon. A beacon from a suspected-dead peer revives
  /// it; a higher incarnation records that the peer restarted (its previous
  /// process, and all state it held, is gone). A beacon from a not-yet-
  /// joined peer marks it joined.
  BeaconEffect record_heartbeat(int node, std::int64_t incarnation, TimeS now);

  /// Evaluate suspicion at `now`; returns peers that transitioned
  /// alive -> dead during this evaluation (each transition reported once).
  std::vector<int> check(TimeS now);

  /// Fresh-process reset (node restart): the new process starts optimistic,
  /// treating every *member* peer as alive and freshly heard so stale
  /// pre-crash timers cannot fire instant false suspicions. Learned
  /// incarnations are kept — they are monotonic and only make the
  /// ghost-beacon guard safer. Peers that never joined stay unjoined.
  void reset(TimeS now) {
    for (Peer& p : peers_) {
      if (!p.joined) continue;
      p.last_heard = now;
      set_alive(p, true);
    }
  }

  /// Elastic scale-out: mark a node that is not (yet) a cluster member —
  /// dead and unjoined until its first beacon (or mark_joined) arrives.
  void mark_unjoined(int node) {
    Peer& p = peers_[static_cast<std::size_t>(node)];
    p.joined = false;
    set_alive(p, false);
  }
  /// Admit a member directly (ground-truth bootstrap of a joiner's own
  /// fresh view; everyone else learns from beacons).
  void mark_joined(int node, TimeS now) {
    Peer& p = peers_[static_cast<std::size_t>(node)];
    p.joined = true;
    set_alive(p, true);
    if (now > p.last_heard) p.last_heard = now;
  }
  bool joined(int node) const {
    return peers_[static_cast<std::size_t>(node)].joined;
  }

  bool alive(int node) const {
    return peers_[static_cast<std::size_t>(node)].alive;
  }
  /// Bumps on every alive/dead flip of any peer, so a reader can tell in
  /// O(1) whether a set it derived from this view may have changed.
  std::uint64_t generation() const { return generation_; }
  std::int64_t incarnation(int node) const {
    return peers_[static_cast<std::size_t>(node)].incarnation;
  }
  TimeS last_heard(int node) const {
    return peers_[static_cast<std::size_t>(node)].last_heard;
  }
  const MembershipConfig& config() const { return cfg_; }

 private:
  struct Peer {
    TimeS last_heard = 0.0;
    std::int64_t incarnation = 0;
    bool alive = true;
    bool joined = true;  ///< false until an elastic joiner's first beacon
  };

  void set_alive(Peer& p, bool alive) {
    if (p.alive == alive) return;
    p.alive = alive;
    ++generation_;
  }

  MembershipConfig cfg_;
  int self_ = -1;
  std::vector<Peer> peers_;
  std::uint64_t generation_ = 0;
};

/// One node's view of who currently leads each shard group.
///
/// There is one group per *base* server: group `g` holds the slices owned
/// by server g at partition time. While a base server leads, the chain is
/// the fixed home ring {g, g+1, ..., g+R-1} (mod n_base). Elastic scale-out
/// adds servers beyond the base ring; when shard rebalancing hands group
/// `g` to a joiner j, the chain derives from the current primary instead:
/// {j, g, g+1, ..., g+R-2} — the joiner leads and the head of the home ring
/// (the donor) stays as the first backup.
///
/// Under lease-based leadership each view additionally tracks a per-group
/// lease deadline (renewed by received beacons in ps::Cluster); a failover
/// may act on a suspected-dead primary only once its lease expired, which
/// removes the dual-primary window a per-observer silence threshold allows.
class ShardLeadership {
 public:
  struct Lease {
    std::int64_t epoch = 0;  ///< bumps on every leadership change
    int primary = -1;        ///< server index currently leading the group
  };

  /// `n_servers_total` counts base + joiner servers; < 0 = no joiners.
  ShardLeadership(int n_groups, int replication, int n_servers_total = -1);

  int n_servers() const { return n_groups_; }
  int n_groups() const { return n_groups_; }
  int n_servers_total() const { return n_total_; }
  int replication() const { return replication_; }

  Lease lease(int group) const { return {epoch(group), primary(group)}; }
  int primary(int group) const {
    return primary_[static_cast<std::size_t>(group)];
  }
  std::int64_t epoch(int group) const {
    return epoch_[static_cast<std::size_t>(group)];
  }

  /// Position of `server` in group `g`'s *current* chain (0 = primary-side
  /// head), or -1 if the server does not replicate the group right now.
  int chain_offset(int group, int server) const;

  /// Replica at chain offset `k` of group `g`'s current chain (derived from
  /// the believed primary, see the class comment).
  int member(int group, int k) const;

  /// Deterministic succession rank used for equal-epoch conflicts: base
  /// servers rank by home-ring offset, joiners rank after every base server
  /// (in id order), so cascaded same-epoch claims converge identically at
  /// every observer toward the later rank.
  int succession_rank(int group, int server) const;

  /// Monotonic adoption of an announced lease. Returns true if the view
  /// moved. Equal epochs resolve toward the later succession rank.
  bool adopt(int group, std::int64_t epoch, int primary);

  // --- lease timing (meaningful only when ps::Cluster arms leases) ---
  /// Simulated time until which this view considers the group's leadership
  /// lease valid; 0 = never granted (immediately expired).
  TimeS lease_deadline(int group) const {
    return lease_until_[static_cast<std::size_t>(group)];
  }
  /// Extend the lease (monotonic; a stale renewal never shortens it).
  void renew_lease(int group, TimeS until) {
    auto& u = lease_until_[static_cast<std::size_t>(group)];
    if (until > u) u = until;
  }
  /// Void the lease now (incarnation supersession: the holder is gone).
  void expire_lease(int group, TimeS now) {
    auto& u = lease_until_[static_cast<std::size_t>(group)];
    if (now < u) u = now;
  }

 private:
  int n_groups_ = 0;
  int n_total_ = 0;
  int replication_ = 1;
  // Primaries apart from epochs: every push is routed through its sender's
  // view, so they stay packed.
  std::vector<int> primary_;
  std::vector<std::int64_t> epoch_;
  std::vector<TimeS> lease_until_;
};

}  // namespace p3::ps
