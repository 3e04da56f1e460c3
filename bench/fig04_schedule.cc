// Figure 4: aggressive vs priority-based parameter synchronization on the
// paper's 3-layer cartoon model — forward and backward of each layer take
// one time unit, synchronization of each layer takes two (one unit of
// gradient propagation out, one unit of parameter propagation back).
//
// The paper's claim: with aggressive (FIFO) synchronization the delay
// between the two iterations is twice the first layer's sync time because
// of queueing induced by the later layers, and the network idles during the
// forward pass; priority-based synchronization halves the delay and spreads
// communication over both passes.
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "model/zoo.h"
#include "ps/cluster.h"
#include "trace/timeline.h"

namespace {

using namespace p3;

constexpr double kUnit = 0.010;  // one cartoon time unit = 10 ms

ps::ClusterConfig cartoon_config(core::SyncMethod method) {
  ps::ClusterConfig cfg;
  cfg.n_workers = 1;
  cfg.dedicated_servers = true;  // sync must cross the network
  cfg.method = method;
  // One layer = 50k params = 200 KB payload. Two time units of sync per
  // layer = 1 unit out + 1 unit back -> NIC rate = 200KB * 8 / 10ms.
  cfg.bandwidth = 200'000 * 8 / kUnit;
  cfg.rx_bandwidth = cfg.bandwidth;
  cfg.latency = 0.0;
  cfg.slice_params = 50'000;          // one slice per layer
  cfg.kvstore_threshold = 1'000'000;  // layers stay whole under baseline
  cfg.update_bytes_per_sec = 1e12;    // cartoon ignores server compute
  cfg.update_overhead = 0.0;
  // fwd = bwd = 1 unit per layer.
  cfg.fwd_times = {kUnit, kUnit, kUnit};
  cfg.bwd_times = {kUnit, kUnit, kUnit};
  return cfg;
}

double run_case(core::SyncMethod method, const char* title) {
  model::Workload w;
  w.model = model::toy_uniform(3, 50'000);
  w.batch_per_worker = 1;
  w.iter_compute_time = 6 * kUnit;

  ps::Cluster cluster(w, cartoon_config(method));
  trace::Timeline tl;
  cluster.attach_tracer(&tl.tracer());
  const auto result = cluster.run(2, 2);

  std::printf("--- %s ---\n", title);
  std::printf("one column = one time unit; F/B = fwd/bwd compute, g = "
              "gradient push, p = parameter return\n");
  // Show two steady-state iterations.
  const double t0 = 2.0 * result.mean_iteration_time;
  std::printf("%s", tl.to_ascii(kUnit, t0, t0 + 4.0 * result.mean_iteration_time).c_str());
  const double delay_units = (result.mean_iteration_time - 6 * kUnit) / kUnit;
  std::printf("iteration time: %.1f units (compute 6.0, sync-induced delay "
              "%.1f)\n\n",
              result.mean_iteration_time / kUnit, delay_units);
  return delay_units;
}

}  // namespace

int main() {
  std::printf("== Figure 4: aggressive vs priority-based synchronization ==\n\n");
  const double delay_aggressive =
      run_case(core::SyncMethod::kBaseline, "Fig 4(a) aggressive (FIFO)");
  const double delay_priority =
      run_case(core::SyncMethod::kP3, "Fig 4(b) priority-based (P3)");
  std::printf("paper: priority scheduling halves the inter-iteration delay\n");
  std::printf("measured: %.1f units -> %.1f units (%.0f%% reduction)\n",
              delay_aggressive, delay_priority,
              100.0 * (1.0 - delay_priority / delay_aggressive));
  return 0;
}
