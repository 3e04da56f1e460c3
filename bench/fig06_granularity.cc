// Figure 6: layer-level vs fine-grained synchronization granularity.
//
// The cartoon: a 3-layer model whose middle layer is three times heavier
// than the others. At layer granularity the heavy layer's gradient push,
// server update and parameter return serialize (Fig 6a); slicing it into
// three independent slices pipelines the three phases and overlaps
// bidirectional bandwidth (Fig 6b). The paper quotes ~30% communication
// cost reduction in this example.
#include <cstdio>

#include "model/zoo.h"
#include "ps/cluster.h"
#include "trace/timeline.h"

namespace {

using namespace p3;

constexpr double kUnit = 0.010;
constexpr std::int64_t kSlice = 50'000;  // one "unit" of parameters

ps::ClusterConfig cartoon_config(bool fine_grained) {
  ps::ClusterConfig cfg;
  cfg.n_workers = 1;
  cfg.dedicated_servers = true;
  cfg.method = fine_grained ? core::SyncMethod::kSlicingOnly
                            : core::SyncMethod::kBaseline;
  // One slice of 50k params takes one unit on the wire...
  cfg.bandwidth = kSlice * 4 * 8 / kUnit;
  cfg.rx_bandwidth = cfg.bandwidth;
  cfg.latency = 0.0;
  cfg.slice_params = kSlice;
  cfg.kvstore_threshold = 10'000'000;  // baseline keeps layers whole
  // ...and one unit in the server update stage.
  cfg.update_bytes_per_sec = kSlice * 4 / kUnit;
  cfg.update_overhead = 0.0;
  // Make compute long enough that the experiment isolates communication.
  cfg.fwd_times = {kUnit, kUnit, kUnit};
  cfg.bwd_times = {kUnit, kUnit, kUnit};
  return cfg;
}

double run_case(bool fine_grained, const char* title) {
  model::Workload w;
  // L2 is 3x heavier (the paper's "thrice as much time" example).
  w.model = model::toy_custom({kSlice, 3 * kSlice, kSlice});
  w.batch_per_worker = 1;
  w.iter_compute_time = 6 * kUnit;

  ps::Cluster cluster(w, cartoon_config(fine_grained));
  trace::Timeline tl;
  cluster.attach_tracer(&tl.tracer());
  const auto result = cluster.run(2, 2);

  std::printf("--- %s ---\n", title);
  std::printf("g = gradient push, U = server update, p = parameter return\n");
  const double t0 = 2.0 * result.mean_iteration_time;
  std::printf("%s", tl.to_ascii(kUnit, t0, t0 + 3.0 * result.mean_iteration_time).c_str());
  std::printf("iteration time: %.1f units\n\n",
              result.mean_iteration_time / kUnit);
  return result.mean_iteration_time;
}

}  // namespace

int main() {
  std::printf("== Figure 6: coarse vs fine synchronization granularity ==\n\n");
  const double coarse = run_case(false, "Fig 6(a) layer-level granularity");
  const double fine = run_case(true, "Fig 6(b) fine granularity (sliced)");
  const double compute = 6 * kUnit;
  const double comm_coarse = coarse - compute;
  const double comm_fine = fine - compute;
  std::printf("paper: parameter slicing reduces the communication cost by "
              "~30%% in this example\n");
  std::printf("measured: sync-induced delay %.1f -> %.1f units (%.0f%% "
              "reduction)\n",
              comm_coarse / kUnit, comm_fine / kUnit,
              100.0 * (1.0 - comm_fine / comm_coarse));
  return 0;
}
