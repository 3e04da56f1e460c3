#include "ps/membership.h"

#include <stdexcept>

namespace p3::ps {

Membership::Membership(const MembershipConfig& config, int self)
    : cfg_(config), self_(self) {
  if (config.n_nodes <= 0) {
    throw std::invalid_argument("membership needs at least one node");
  }
  if (self < 0 || self >= config.n_nodes) {
    throw std::invalid_argument("membership self index out of range");
  }
  if (config.heartbeat_period <= 0.0) {
    throw std::invalid_argument("non-positive heartbeat period");
  }
  if (config.suspicion_timeout <= config.heartbeat_period) {
    throw std::invalid_argument(
        "suspicion timeout must exceed the heartbeat period");
  }
  peers_.resize(static_cast<std::size_t>(config.n_nodes));
}

Membership::BeaconEffect Membership::record_heartbeat(int node,
                                                      std::int64_t incarnation,
                                                      TimeS now) {
  if (node < 0 || node >= n_nodes()) {
    throw std::out_of_range("heartbeat from unknown node");
  }
  BeaconEffect effect;
  Peer& p = peers_[static_cast<std::size_t>(node)];
  // Beacons from an older incarnation are ghosts of a process already known
  // to have died; they must not revive the peer or refresh its timer.
  if (incarnation < p.incarnation) return effect;
  // A higher incarnation while the peer is still believed alive means the
  // old process crashed and restarted inside the silence threshold: the
  // supersession is immediate — there is no old process left to suspect.
  effect.superseded =
      p.joined && p.alive && incarnation > p.incarnation;
  effect.revived = p.joined && !p.alive;
  p.incarnation = incarnation;
  if (now > p.last_heard) p.last_heard = now;
  set_alive(p, true);
  p.joined = true;
  return effect;
}

std::vector<int> Membership::check(TimeS now) {
  std::vector<int> newly_dead;
  for (int node = 0; node < n_nodes(); ++node) {
    if (node == self_) continue;  // a node never suspects itself
    Peer& p = peers_[static_cast<std::size_t>(node)];
    if (!p.alive) continue;
    if (now - p.last_heard > cfg_.suspicion_timeout) {
      set_alive(p, false);
      newly_dead.push_back(node);
    }
  }
  return newly_dead;
}

ShardLeadership::ShardLeadership(int n_groups, int replication,
                                 int n_servers_total)
    : n_groups_(n_groups),
      n_total_(n_servers_total < 0 ? n_groups : n_servers_total),
      replication_(replication) {
  if (n_groups <= 0) {
    throw std::invalid_argument("leadership needs at least one server");
  }
  if (replication < 1 || replication > n_groups) {
    throw std::invalid_argument(
        "replication factor outside [1, n_servers]");
  }
  if (n_total_ < n_groups) {
    throw std::invalid_argument("total server count below the base ring");
  }
  primary_.resize(static_cast<std::size_t>(n_groups));
  for (int g = 0; g < n_groups; ++g) {
    primary_[static_cast<std::size_t>(g)] = g;  // chain head leads
  }
  epoch_.assign(static_cast<std::size_t>(n_groups), 0);
  lease_until_.assign(static_cast<std::size_t>(n_groups), 0.0);
}

int ShardLeadership::member(int group, int k) const {
  const int p = primary(group);
  if (p < n_groups_) {
    // Base-ring primary: the original fixed home ring.
    return (group + k) % n_groups_;
  }
  // Joiner-led group: the joiner heads the chain and the first R-1 home
  // ring members (donor first) stay as backups.
  if (k == 0) return p;
  return (group + k - 1) % n_groups_;
}

int ShardLeadership::chain_offset(int group, int server) const {
  for (int k = 0; k < replication_; ++k) {
    if (member(group, k) == server) return k;
  }
  return -1;
}

int ShardLeadership::succession_rank(int group, int server) const {
  if (server < n_groups_) return (server - group + n_groups_) % n_groups_;
  return n_groups_ + (server - n_groups_);  // joiners rank after the ring
}

bool ShardLeadership::adopt(int group, std::int64_t epoch, int primary) {
  if (group < 0 || group >= n_groups_) {
    throw std::out_of_range("leadership group out of range");
  }
  if (primary < 0 || primary >= n_total_) {
    throw std::invalid_argument("adopted primary outside the cluster");
  }
  // Base servers may lead only groups whose home ring they replicate;
  // joiners may be handed any group by the rebalance planner.
  if (primary < n_groups_ &&
      (primary - group + n_groups_) % n_groups_ >= replication_) {
    throw std::invalid_argument("adopted primary is not a group replica");
  }
  const auto g = static_cast<std::size_t>(group);
  const bool newer =
      epoch > epoch_[g] ||
      (epoch == epoch_[g] &&
       succession_rank(group, primary) > succession_rank(group, primary_[g]));
  if (!newer) return false;
  epoch_[g] = epoch;
  primary_[g] = primary;
  return true;
}

}  // namespace p3::ps
