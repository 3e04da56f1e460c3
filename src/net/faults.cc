#include "net/faults.h"

#include <algorithm>
#include <stdexcept>

namespace p3::net {

namespace {

bool endpoint_matches(int pattern, int node) {
  return pattern < 0 || pattern == node;
}

bool contains(const std::vector<int>& side, int node) {
  return std::find(side.begin(), side.end(), node) != side.end();
}

}  // namespace

bool NetPartition::in_a(int node) const { return contains(side_a, node); }
bool NetPartition::in_b(int node) const { return contains(side_b, node); }

bool NetPartition::severs(int src, int dst, TimeS t) const {
  if (t < start || t >= heal) return false;
  if (flap_period > 0.0) {
    // The cut oscillates: active only in the first half of each period.
    const double phase = (t - start) / flap_period;
    const double frac = phase - static_cast<double>(static_cast<long long>(phase));
    if (frac >= 0.5) return false;
  }
  if (in_a(src) && in_b(dst)) return true;
  if (symmetric && in_b(src) && in_a(dst)) return true;
  return false;
}

bool NetPartition::severs_during(int src, int dst, TimeS t0, TimeS t1) const {
  // Window [start, heal) overlaps [t0, t1]? Tested before the side scans,
  // as in severs(): most transfers run outside every cut.
  if (!(start <= t1 && t0 < heal)) return false;
  const bool crosses = (in_a(src) && in_b(dst)) ||
                       (symmetric && in_b(src) && in_a(dst));
  if (!crosses) return false;
  if (flap_period <= 0.0) return true;
  // Flapping: check each on-window [start + k*P, start + k*P + P/2) that
  // could overlap [t0, t1], clipped to [start, heal).
  const TimeS lo = std::max(t0, start);
  const TimeS hi = std::min(t1, heal);
  const auto k0 = static_cast<long long>((lo - start) / flap_period);
  for (long long k = k0;; ++k) {
    const TimeS on = start + static_cast<double>(k) * flap_period;
    if (on > hi || on >= heal) break;
    const TimeS off = on + flap_period / 2.0;
    if (on <= hi && lo < off) return true;
  }
  return false;
}

void FaultPlan::validate(int base_nodes, int replication) const {
  if (drop_prob < 0.0 || drop_prob > 1.0) {
    throw std::invalid_argument("drop probability outside [0, 1]");
  }
  for (const auto& d : link_drops) {
    if (d.probability < 0.0 || d.probability > 1.0) {
      throw std::invalid_argument("link drop probability outside [0, 1]");
    }
  }
  for (const auto& f : flaps) {
    if (f.start < 0.0) throw std::invalid_argument("negative flap start");
    if (f.end < f.start) {
      throw std::invalid_argument("inverted flap window (end before start)");
    }
  }
  for (const auto& d : degradations) {
    if (d.bandwidth_factor <= 0.0 || d.bandwidth_factor > 1.0) {
      throw std::invalid_argument("degradation factor outside (0, 1]");
    }
    if (d.extra_latency < 0.0) {
      throw std::invalid_argument("negative degradation latency");
    }
    if (d.start < 0.0) {
      throw std::invalid_argument("negative degradation start");
    }
    if (d.end < d.start) {
      throw std::invalid_argument(
          "inverted degradation window (end before start)");
    }
  }
  for (const auto& p : pauses) {
    if (p.start < 0.0) throw std::invalid_argument("negative pause start");
    if (p.duration < 0.0) throw std::invalid_argument("negative pause");
  }
  for (const auto& c : crashes) {
    if (c.node < 0) throw std::invalid_argument("crash without a victim node");
    if (c.at < 0.0) throw std::invalid_argument("negative crash time");
  }
  for (std::size_t i = 0; i < joins.size(); ++i) {
    const auto& j = joins[i];
    if (j.node < 0) throw std::invalid_argument("join without a node id");
    if (j.at < 0.0) throw std::invalid_argument("negative join time");
    for (std::size_t k = 0; k < i; ++k) {
      if (joins[k].node == j.node) {
        throw std::invalid_argument(
            "join for a node that is already a member at join time "
            "(duplicate join)");
      }
    }
    for (const auto& c : crashes) {
      if (c.node != j.node) continue;
      if (c.down_at(j.at)) {
        throw std::invalid_argument(
            "join scheduled during the node's crash window");
      }
      if (c.at < j.at) {
        throw std::invalid_argument(
            "crash scheduled before the node joins");
      }
    }
    if (base_nodes >= 0 && j.node < base_nodes) {
      throw std::invalid_argument(
          "join for a node that is already a member at join time");
    }
  }
  if (base_nodes >= 0 && !joins.empty()) {
    // Joiner ids must extend the cluster contiguously (base, base+1, ...):
    // node arrays, shard chains and the rebalance planner all index by id.
    std::vector<int> ids;
    for (const auto& j : joins) ids.push_back(j.node);
    std::sort(ids.begin(), ids.end());
    for (std::size_t i = 0; i < ids.size(); ++i) {
      if (ids[i] != base_nodes + static_cast<int>(i)) {
        throw std::invalid_argument(
            "join ids must extend the cluster contiguously");
      }
    }
  }
  for (std::size_t i = 0; i < leaves.size(); ++i) {
    const auto& l = leaves[i];
    if (l.node < 0) throw std::invalid_argument("leave without a node id");
    if (l.at < 0.0) throw std::invalid_argument("negative leave time");
    for (std::size_t k = 0; k < i; ++k) {
      if (leaves[k].node == l.node) {
        throw std::invalid_argument("duplicate leave for a node");
      }
    }
    for (const auto& c : crashes) {
      if (c.node != l.node) continue;
      // A dead process cannot start draining. A crash strictly after the
      // drain begins is legal: the crash kills the drain intent and the
      // failover path takes over (the drain×crash chaos scenario).
      if (c.down_at(l.at)) {
        throw std::invalid_argument(
            "leave scheduled during the node's crash window");
      }
    }
    for (const auto& j : joins) {
      if (j.node == l.node && l.at < j.at) {
        throw std::invalid_argument(
            "leave scheduled before the node joins");
      }
    }
    if (base_nodes >= 0 &&
        l.node >= base_nodes + static_cast<int>(joins.size())) {
      throw std::invalid_argument(
          "leave names a node that never exists in the cluster");
    }
  }
  if (base_nodes > 0 && !leaves.empty()) {
    // Last-live-replica check: a shard group's home chain is the
    // `replication` consecutive base servers starting at its group id. If
    // every chain member is scheduled to leave or crash without restart,
    // and no joiner exists to absorb the group, the leave schedule strands
    // the group with no legal drain target.
    const int chain = std::max(1, replication);
    for (int g = 0; g < base_nodes; ++g) {
      bool any_survivor = !joins.empty();  // a joiner may adopt any group
      for (int k = 0; k < chain && !any_survivor; ++k) {
        const int member = (g + k) % base_nodes;
        bool leaves_or_dies = false;
        for (const auto& l : leaves) {
          if (l.node == member) leaves_or_dies = true;
        }
        for (const auto& c : crashes) {
          if (c.node == member && !c.restarts()) leaves_or_dies = true;
        }
        if (!leaves_or_dies) any_survivor = true;
      }
      if (!any_survivor) {
        throw std::invalid_argument(
            "leave schedule drops a shard group's last live replica");
      }
    }
  }
  if (lease_duration.has_value() && *lease_duration <= 0.0) {
    throw std::invalid_argument("non-positive lease duration");
  }
  for (const auto& p : partitions) {
    if (p.side_a.empty() || p.side_b.empty()) {
      throw std::invalid_argument("partition with an empty side");
    }
    for (int n : p.side_a) {
      if (n < 0) throw std::invalid_argument("negative partition node id");
      if (contains(p.side_b, n)) {
        throw std::invalid_argument(
            "partition sides overlap (node on both sides of the cut)");
      }
    }
    for (int n : p.side_b) {
      if (n < 0) throw std::invalid_argument("negative partition node id");
    }
    if (p.start < 0.0) {
      throw std::invalid_argument("negative partition start");
    }
    if (p.heal <= p.start) {
      throw std::invalid_argument(
          "inverted partition window (heal before start)");
    }
    if (p.flap_period < 0.0) {
      throw std::invalid_argument("negative partition flap period");
    }
    if (base_nodes >= 0) {
      // The largest id that will ever exist: base nodes plus joiners (the
      // contiguity check above pins joiner ids to base_nodes + i).
      const int max_nodes = base_nodes + static_cast<int>(joins.size());
      for (int n : p.side_a) {
        if (n >= max_nodes) {
          throw std::invalid_argument(
              "partition names a node that never exists in the cluster");
        }
      }
      for (int n : p.side_b) {
        if (n >= max_nodes) {
          throw std::invalid_argument(
              "partition names a node that never exists in the cluster");
        }
      }
    }
  }
  if (clock_drift_rate < 0.0 || clock_drift_rate >= 1.0) {
    throw std::invalid_argument("clock drift rate outside [0, 1)");
  }
  if (clock_offset_bound < 0.0) {
    throw std::invalid_argument("negative clock offset bound");
  }
}

FaultInjector::FaultInjector(FaultPlan plan, std::uint64_t fallback_seed)
    : plan_(std::move(plan)),
      rng_(plan_.seed != 0 ? plan_.seed : fallback_seed) {
  plan_.validate();
}

double FaultInjector::drop_probability(int src, int dst) const {
  for (const auto& d : plan_.link_drops) {
    if (endpoint_matches(d.src, src) && endpoint_matches(d.dst, dst)) {
      return d.probability;
    }
  }
  return plan_.drop_prob;
}

bool FaultInjector::in_blackout(int src, int dst, TimeS t) const {
  for (const auto& f : plan_.flaps) {
    if (endpoint_matches(f.src, src) && endpoint_matches(f.dst, dst) &&
        t >= f.start && t < f.end) {
      return true;
    }
  }
  return false;
}

bool FaultInjector::should_drop(const Message& m, TimeS tx_start) {
  if (m.src == m.dst) return false;  // loopback never touches the wire
  if (partition_severs(m.src, m.dst, tx_start)) {
    ++drops_;
    ++partition_drops_;
    return true;
  }
  if (in_blackout(m.src, m.dst, tx_start)) {
    ++drops_;
    return true;
  }
  const double p = drop_probability(m.src, m.dst);
  if (p <= 0.0) return false;
  if (p >= 1.0 || rng_.uniform() < p) {
    ++drops_;
    return true;
  }
  return false;
}

double FaultInjector::bandwidth_factor(int node, TimeS t) const {
  double factor = 1.0;
  for (const auto& d : plan_.degradations) {
    if (endpoint_matches(d.node, node) && t >= d.start && t < d.end) {
      factor *= d.bandwidth_factor;
    }
  }
  return factor;
}

TimeS FaultInjector::extra_latency(int node, TimeS t) const {
  TimeS extra = 0.0;
  for (const auto& d : plan_.degradations) {
    if (endpoint_matches(d.node, node) && t >= d.start && t < d.end) {
      extra += d.extra_latency;
    }
  }
  return extra;
}

bool FaultInjector::crashed(int node, TimeS t) const {
  for (const auto& c : plan_.crashes) {
    if (c.node == node && c.down_at(t)) return true;
  }
  return false;
}

bool FaultInjector::down_during(int node, TimeS t0, TimeS t1) const {
  for (const auto& c : plan_.crashes) {
    if (c.node != node) continue;
    // Down window [at, restart) overlaps [t0, t1]?
    if (c.at > t1) continue;
    if (!c.restarts() || c.restart_time() > t0) return true;
  }
  return false;
}

bool FaultInjector::partition_severs(int src, int dst, TimeS t) const {
  for (const auto& p : plan_.partitions) {
    if (p.severs(src, dst, t)) return true;
  }
  return false;
}

bool FaultInjector::severed_during(int src, int dst, TimeS t0,
                                   TimeS t1) const {
  for (const auto& p : plan_.partitions) {
    if (p.severs_during(src, dst, t0, t1)) return true;
  }
  return false;
}

TimeS FaultInjector::pause_release(int node, TimeS t) const {
  // A release can land inside another pause window, so iterate to a fixed
  // point (windows are few; overlapping windows converge in <= n passes).
  TimeS release = t;
  bool moved = true;
  while (moved) {
    moved = false;
    for (const auto& p : plan_.pauses) {
      if (endpoint_matches(p.node, node) && release >= p.start &&
          release < p.start + p.duration) {
        release = p.start + p.duration;
        moved = true;
      }
    }
  }
  return release;
}

}  // namespace p3::net
