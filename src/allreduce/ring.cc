#include "allreduce/ring.h"

#include <algorithm>
#include <queue>
#include <stdexcept>

namespace p3::ar {

std::string ar_schedule_name(ArSchedule schedule) {
  switch (schedule) {
    case ArSchedule::kPerLayer:
      return "AR-per-layer";
    case ArSchedule::kFused:
      return "AR-fused";
    case ArSchedule::kPrioritySliced:
      return "AR-P3";
  }
  throw std::invalid_argument("unknown allreduce schedule");
}

std::vector<Bucket> make_buckets(const model::ModelSpec& model,
                                 ArSchedule schedule, Bytes bucket_bytes,
                                 std::int64_t slice_params) {
  if (model.layers.empty()) throw std::invalid_argument("model has no layers");
  std::vector<Bucket> buckets;
  const int layers = model.num_layers();

  auto add = [&](std::vector<int> covered, Bytes bytes, int priority) {
    Bucket b;
    b.id = static_cast<std::int64_t>(buckets.size());
    b.layers = std::move(covered);
    b.bytes = bytes;
    b.priority = priority;
    buckets.push_back(std::move(b));
  };

  switch (schedule) {
    case ArSchedule::kPerLayer:
      // One collective per layer; executed in gradient generation order
      // (final layer first), so priority = reverse forward index.
      for (int l = layers - 1; l >= 0; --l) {
        add({l}, model.layer_bytes(l), layers - 1 - l);
      }
      break;
    case ArSchedule::kFused: {
      // Fuse consecutive layers (walking in generation order) until the
      // bucket reaches the fusion threshold — DDP/Horovod bucketing.
      if (bucket_bytes <= 0) throw std::invalid_argument("bad bucket size");
      std::vector<int> covered;
      Bytes acc = 0;
      int rank = 0;
      for (int l = layers - 1; l >= 0; --l) {
        covered.push_back(l);
        acc += model.layer_bytes(l);
        if (acc >= bucket_bytes || l == 0) {
          std::reverse(covered.begin(), covered.end());
          add(std::move(covered), acc, rank++);
          covered = {};
          acc = 0;
        }
      }
      break;
    }
    case ArSchedule::kPrioritySliced: {
      // P3 applied to collectives: slices of <= slice_params parameters,
      // priority inherited from the owning layer's forward position.
      if (slice_params <= 0) throw std::invalid_argument("bad slice size");
      for (int l = 0; l < layers; ++l) {
        std::int64_t remaining =
            model.layers[static_cast<std::size_t>(l)].params;
        while (remaining > 0) {
          const std::int64_t take = std::min(remaining, slice_params);
          add({l}, 4 * take, l);
          remaining -= take;
        }
      }
      break;
    }
  }
  return buckets;
}

ArCluster::ArCluster(model::Workload workload, ArConfig config)
    : workload_(std::move(workload)), cfg_(std::move(config)) {
  if (cfg_.n_workers <= 0) throw std::invalid_argument("need workers");
  if (cfg_.reduce_bytes_per_sec <= 0 || cfg_.update_bytes_per_sec <= 0) {
    throw std::invalid_argument("non-positive processing rate");
  }
  buckets_ = make_buckets(workload_.model, cfg_.schedule, cfg_.bucket_bytes,
                          cfg_.slice_params);
  layer_buckets_.resize(static_cast<std::size_t>(workload_.model.num_layers()));
  for (const auto& b : buckets_) {
    for (int l : b.layers) {
      layer_buckets_[static_cast<std::size_t>(l)].push_back(b.id);
    }
  }

  if (!cfg_.fwd_times.empty()) {
    const auto n = static_cast<std::size_t>(workload_.model.num_layers());
    if (cfg_.fwd_times.size() != n || cfg_.bwd_times.size() != n) {
      throw std::invalid_argument("compute override size mismatch");
    }
    profile_.fwd = cfg_.fwd_times;
    profile_.bwd = cfg_.bwd_times;
  } else {
    profile_ =
        model::make_profile(workload_.model, workload_.iter_compute_time);
  }

  if (cfg_.three_level && !cfg_.topology.active()) {
    throw std::invalid_argument(
        "three-level allreduce requires a rack topology");
  }
  if (cfg_.topology.active()) {
    cfg_.topology.validate(cfg_.n_workers);
    const int racks = cfg_.topology.n_racks();
    rack_leader_.resize(static_cast<std::size_t>(racks));
    rack_members_.resize(static_cast<std::size_t>(racks));
    for (int r = 0; r < racks; ++r) {
      rack_leader_[static_cast<std::size_t>(r)] = cfg_.topology.aggregator_of(r);
      rack_members_[static_cast<std::size_t>(r)] =
          cfg_.topology.racks[static_cast<std::size_t>(r)];
    }
  }

  net::NetworkConfig net_cfg;
  net_cfg.rate = cfg_.bandwidth;
  net_cfg.rx_rate = cfg_.rx_bandwidth;
  net_cfg.latency = cfg_.latency;
  net_cfg.topology = cfg_.topology;
  net_ = std::make_unique<net::Network>(sim_, cfg_.n_workers, net_cfg);

  const int layers = workload_.model.num_layers();
  for (int w = 0; w < cfg_.n_workers; ++w) {
    auto ws = std::make_unique<WorkerState>();
    for (int l = 0; l < layers; ++l) {
      (void)l;
      ws->gates.push_back(std::make_unique<sim::VersionGate>(sim_));
    }
    ws->rng = Rng(cfg_.seed + 7919ULL * static_cast<std::uint64_t>(w + 1));
    workers_.push_back(std::move(ws));
  }

  layer_ready_count_.assign(static_cast<std::size_t>(layers), 0);
  bucket_done_.assign(buckets_.size(), false);
  layer_buckets_done_.assign(static_cast<std::size_t>(layers), 0);
  ready_signal_ = std::make_unique<sim::Semaphore>(sim_, 0);
  if (cfg_.max_inflight <= 0) {
    throw std::invalid_argument("need at least one in-flight collective");
  }
}

ArCluster::~ArCluster() = default;

void ArCluster::mark_layer_ready(int layer) {
  auto& count = layer_ready_count_[static_cast<std::size_t>(layer)];
  if (++count == cfg_.n_workers) {
    ready_signal_->release();
  }
}

std::int64_t ArCluster::pick_ready_bucket() const {
  // Highest priority (smallest key) among buckets whose every layer has
  // gradients from all workers and which have not run this round.
  std::int64_t best = -1;
  for (const auto& b : buckets_) {
    if (bucket_done_[static_cast<std::size_t>(b.id)]) continue;
    bool ready = true;
    for (int l : b.layers) {
      if (layer_ready_count_[static_cast<std::size_t>(l)] < cfg_.n_workers) {
        ready = false;
        break;
      }
    }
    if (!ready) continue;
    if (best < 0 ||
        b.priority < buckets_[static_cast<std::size_t>(best)].priority) {
      best = b.id;
    }
  }
  return best;
}

sim::Task ArCluster::worker_loop(int w) {
  auto& ws = *workers_[static_cast<std::size_t>(w)];
  const int layers = workload_.model.num_layers();
  for (std::int64_t iter = 0; iter < target_iterations_; ++iter) {
    double jitter = 1.0;
    if (cfg_.compute_jitter > 0.0) {
      jitter = std::max(0.2, ws.rng.normal(1.0, cfg_.compute_jitter));
    }
    for (int l = 0; l < layers; ++l) {
      co_await ws.gates[static_cast<std::size_t>(l)]->wait_for(iter);
      co_await sim_.sleep(profile_.fwd[static_cast<std::size_t>(l)] * jitter);
    }
    for (int l = layers - 1; l >= 0; --l) {
      co_await sim_.sleep(profile_.bwd[static_cast<std::size_t>(l)] * jitter);
      mark_layer_ready(l);
    }
    ws.iter_done.push_back(sim_.now());
  }
  ++workers_finished_;
}

sim::Task ArCluster::rx_pump(int node) {
  for (;;) {
    const net::MessageHandle m = co_await net_->inbox(node).pop();
    // Route the arrival to the owning in-flight collective.
    arrivals_.at(m->slice)->release();
  }
}

sim::Task ArCluster::run_bucket(std::int64_t id, std::int64_t round) {
  const Bucket& bucket = buckets_[static_cast<std::size_t>(id)];
  // Ring allreduce: 2(n-1) steps of bytes/n each.
  const int n = cfg_.n_workers;
  if (n > 1 && cfg_.three_level) {
    // Hierarchical allreduce: only phase 2 crosses the ToR uplinks, so the
    // spine carries ~bytes per rack instead of the flat ring's repeated
    // wrap-around chunks.
    auto [it, inserted] =
        arrivals_.emplace(id, std::make_unique<sim::Semaphore>(sim_, 0));
    sim::Semaphore& my_arrivals = *it->second;
    (void)inserted;
    auto send = [&](int src, int dst, Bytes bytes) {
      net::Message m;
      m.src = src;
      m.dst = dst;
      m.kind = net::MsgKind::kPushGradient;
      m.slice = bucket.id;
      m.layer = bucket.layers.front();
      m.priority = bucket.priority;
      m.bytes = bytes + net::kHeaderBytes;
      net_->post(m);
    };
    const int racks = static_cast<int>(rack_leader_.size());
    // Phase 1: intra-rack reduce — every member ships its full bucket to
    // the rack leader, which folds the contributions (racks in parallel,
    // so the fold cost is the worst rack's).
    co_await sim_.sleep(cfg_.step_overhead);
    int phase1 = 0;
    std::size_t widest_rack = 1;
    for (int r = 0; r < racks; ++r) {
      const int leader = rack_leader_[static_cast<std::size_t>(r)];
      const auto& members = rack_members_[static_cast<std::size_t>(r)];
      widest_rack = std::max(widest_rack, members.size());
      for (int v : members) {
        if (v == leader) continue;
        send(v, leader, bucket.bytes);
        ++phase1;
      }
    }
    for (int i = 0; i < phase1; ++i) co_await my_arrivals.acquire();
    co_await sim_.sleep(static_cast<double>(widest_rack - 1) *
                        static_cast<double>(bucket.bytes) /
                        cfg_.reduce_bytes_per_sec);
    // Phase 2: ring allreduce across the rack leaders — the only traffic
    // that crosses the spine.
    if (racks > 1) {
      const Bytes chunk = (bucket.bytes + racks - 1) / racks;
      for (int step = 0; step < 2 * (racks - 1); ++step) {
        co_await sim_.sleep(cfg_.step_overhead);
        for (int r = 0; r < racks; ++r) {
          send(rack_leader_[static_cast<std::size_t>(r)],
               rack_leader_[static_cast<std::size_t>((r + 1) % racks)], chunk);
        }
        for (int r = 0; r < racks; ++r) co_await my_arrivals.acquire();
        if (step < racks - 1) {
          co_await sim_.sleep(static_cast<double>(chunk) /
                              cfg_.reduce_bytes_per_sec);
        }
      }
    }
    // Phase 3: intra-rack broadcast of the reduced bucket.
    co_await sim_.sleep(cfg_.step_overhead);
    int phase3 = 0;
    for (int r = 0; r < racks; ++r) {
      const int leader = rack_leader_[static_cast<std::size_t>(r)];
      for (int v : rack_members_[static_cast<std::size_t>(r)]) {
        if (v == leader) continue;
        send(leader, v, bucket.bytes);
        ++phase3;
      }
    }
    for (int i = 0; i < phase3; ++i) co_await my_arrivals.acquire();
    arrivals_.erase(id);
  } else if (n > 1) {
    auto [it, inserted] =
        arrivals_.emplace(id, std::make_unique<sim::Semaphore>(sim_, 0));
    sim::Semaphore& my_arrivals = *it->second;
    (void)inserted;
    const Bytes chunk = (bucket.bytes + n - 1) / n;
    const int steps = 2 * (n - 1);
    for (int step = 0; step < steps; ++step) {
      // Collective launch cost (kernel + NCCL/MPI bookkeeping).
      co_await sim_.sleep(cfg_.step_overhead);
      for (int i = 0; i < n; ++i) {
        net::Message m;
        m.src = i;
        m.dst = (i + 1) % n;
        m.kind = net::MsgKind::kPushGradient;
        m.slice = bucket.id;
        m.layer = bucket.layers.front();
        m.priority = bucket.priority;
        m.bytes = chunk + net::kHeaderBytes;
        net_->post(m);
      }
      for (int i = 0; i < n; ++i) co_await my_arrivals.acquire();
      if (step < n - 1) {
        // Reduce-scatter phase: fold the received chunk in.
        co_await sim_.sleep(static_cast<double>(chunk) /
                            cfg_.reduce_bytes_per_sec);
      }
    }
    arrivals_.erase(id);
  }
  ++collectives_run_;
  exec_log_.push_back(id);
  // Every node applies the optimizer step locally (in parallel).
  co_await sim_.sleep(static_cast<double>(bucket.bytes) /
                      cfg_.update_bytes_per_sec);
  for (int l : bucket.layers) {
    auto& done = layer_buckets_done_[static_cast<std::size_t>(l)];
    if (static_cast<std::size_t>(++done) ==
        layer_buckets_[static_cast<std::size_t>(l)].size()) {
      // Layer fully aggregated: consume its readiness and unblock the next
      // forward pass on every worker.
      layer_ready_count_[static_cast<std::size_t>(l)] = 0;
      for (auto& ws : workers_) {
        ws->gates[static_cast<std::size_t>(l)]->advance_to(round + 1);
      }
    }
  }
  --inflight_;
  ready_signal_->release();  // a window slot freed; engine may launch more
}

sim::Task ArCluster::collective_engine() {
  for (std::int64_t r = 0; r < target_iterations_; ++r) {
    std::fill(bucket_done_.begin(), bucket_done_.end(), false);
    std::fill(layer_buckets_done_.begin(), layer_buckets_done_.end(), 0);
    std::size_t remaining = buckets_.size();
    // Launch ready collectives, highest priority first, keeping up to
    // max_inflight in the air (ByteScheduler-style credit).
    while (remaining > 0 || inflight_ > 0) {
      if (remaining > 0 && inflight_ < cfg_.max_inflight) {
        const std::int64_t id = pick_ready_bucket();
        if (id >= 0) {
          bucket_done_[static_cast<std::size_t>(id)] = true;
          --remaining;
          ++inflight_;
          sim_.spawn(run_bucket(id, r));
          continue;
        }
      }
      co_await ready_signal_->acquire();
    }
  }
}

ArRunResult ArCluster::run(int warmup_iterations, int measured_iterations) {
  if (started_) throw std::logic_error("ArCluster::run is single-use");
  if (measured_iterations <= 0) {
    throw std::invalid_argument("need at least one measured iteration");
  }
  started_ = true;
  target_iterations_ = warmup_iterations + measured_iterations;

  for (int n = 0; n < cfg_.n_workers; ++n) sim_.spawn(rx_pump(n));
  sim_.spawn(collective_engine());
  for (int w = 0; w < cfg_.n_workers; ++w) sim_.spawn(worker_loop(w));

  const bool finished = sim_.run_while(
      [this] { return workers_finished_ == cfg_.n_workers; });
  if (!finished) {
    throw std::logic_error("allreduce simulation deadlocked");
  }

  ArRunResult result;
  result.collectives_run = collectives_run_;
  TimeS start = 0.0;
  TimeS end = 0.0;
  for (const auto& ws : workers_) {
    if (warmup_iterations > 0) {
      start = std::max(start, ws->iter_done[static_cast<std::size_t>(
                                  warmup_iterations - 1)]);
    }
    end = std::max(end, ws->iter_done.back());
  }
  const double samples = static_cast<double>(cfg_.n_workers) *
                         workload_.batch_per_worker * measured_iterations;
  result.throughput = samples / (end - start);
  result.mean_iteration_time =
      (end - start) / static_cast<double>(measured_iterations);
  return result;
}

std::int64_t ArCluster::worker_layer_version(int worker, int layer) const {
  return workers_[static_cast<std::size_t>(worker)]
      ->gates[static_cast<std::size_t>(layer)]
      ->version();
}

}  // namespace p3::ar
