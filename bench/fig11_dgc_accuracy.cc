// Figure 11: validation accuracy of P3 (full-gradient synchronous SGD)
// vs Deep Gradient Compression over five hyper-parameter settings,
// reporting the best/worst band over the final training epochs.
//
// Substitution: the paper trains ResNet-110 on CIFAR-10 for 160 epochs; we
// train an MLP on a synthetic 10-class Gaussian mixture whose achievable
// accuracy sits in the same low-90s band (see DESIGN.md). The comparison —
// exact aggregation vs 99.9%-sparsified gradients with momentum correction
// — is algorithmic and carries over.
//
// Paper observations: P3's accuracy band always sits above DGC's; average
// final-accuracy drop with DGC ~0.4%.
#include <algorithm>
#include <array>
#include <cstdio>
#include <functional>
#include <span>
#include <vector>

#include "bench_util.h"
#include "common/csv.h"
#include "common/options.h"
#include "common/table.h"
#include "train/trainer.h"

namespace {

using namespace p3;
using train::AggregationMode;

struct Band {
  std::vector<double> lo;  // per recorded epoch, min over settings
  std::vector<double> hi;  // max over settings
  double final_best = 0.0;
  double final_mean = 0.0;
};

/// One training run of `mode` under setting `s`; runs share only `data`.
std::vector<train::EpochStat> train_setting(const train::Dataset& data,
                                            AggregationMode mode, int epochs,
                                            const train::SgdConfig& sgd,
                                            std::size_t s) {
  train::TrainerConfig cfg;
  cfg.n_workers = 4;
  cfg.batch_per_worker = 32;
  cfg.epochs = epochs;
  cfg.hidden = {48, 48};
  cfg.sgd = sgd;
  cfg.mode = mode;
  cfg.dgc.sparsity = 0.999;  // the paper's DGC configuration
  cfg.dgc.momentum = sgd.momentum;
  cfg.dgc.warmup_epochs = 4;
  cfg.seed = 1000 + s;
  train::ParallelTrainer trainer(data, cfg);
  return trainer.train();
}

/// The accuracy band over one mode's runs, folded in settings order.
Band reduce_band(std::span<const std::vector<train::EpochStat>> runs,
                 int epochs, int record_from) {
  Band band;
  const auto recorded = static_cast<std::size_t>(epochs - record_from);
  band.lo.assign(recorded, 1.0);
  band.hi.assign(recorded, 0.0);
  double final_sum = 0.0;
  for (const auto& stats : runs) {
    for (std::size_t e = static_cast<std::size_t>(record_from);
         e < stats.size(); ++e) {
      const auto i = e - static_cast<std::size_t>(record_from);
      band.lo[i] = std::min(band.lo[i], stats[e].val_accuracy);
      band.hi[i] = std::max(band.hi[i], stats[e].val_accuracy);
    }
    band.final_best = std::max(band.final_best, stats.back().val_accuracy);
    final_sum += stats.back().val_accuracy;
  }
  band.final_mean = final_sum / static_cast<double>(runs.size());
  return band;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchOptions opts(argc, argv, /*default_warmup=*/0,
                           /*default_measured=*/0,
                           {{"epochs", "160"}, {"record-from", "100"}});
  int epochs = static_cast<int>(opts.raw().integer("epochs"));
  int record_from = static_cast<int>(opts.raw().integer("record-from"));
  if (opts.smoke()) {
    epochs = std::min(epochs, 12);
    record_from = std::min(record_from, epochs / 2);
  }

  std::printf("== Figure 11: P3 vs DGC validation accuracy ==\n");
  std::printf("(substitute task: MLP on 10-class Gaussian mixture; 5 "
              "hyper-parameter settings)\n\n");

  train::MixtureConfig mix;
  mix.noise = 1.6;  // tuned for a low-90s accuracy ceiling (like ResNet-110/CIFAR)
  const auto data = train::make_gaussian_mixture(mix);

  // Five hyper-parameter settings (lr x momentum), as in the paper.
  std::vector<train::SgdConfig> settings;
  for (auto [lr, mom] : std::initializer_list<std::pair<double, double>>{
           {0.10, 0.90}, {0.05, 0.90}, {0.08, 0.85}, {0.10, 0.80},
           {0.05, 0.95}}) {
    train::SgdConfig sgd;
    sgd.lr = lr;
    sgd.momentum = mom;
    sgd.decay_epochs = {epochs / 2, 3 * epochs / 4};
    settings.push_back(sgd);
  }

  // The ten runs (each mode under each setting) are independent, so they
  // fan out over --threads; results come back in submission order.
  const std::array<AggregationMode, 2> modes = {AggregationMode::kFullSync,
                                                AggregationMode::kDgc};
  std::vector<std::function<std::vector<train::EpochStat>()>> jobs;
  for (const AggregationMode mode : modes) {
    for (std::size_t s = 0; s < settings.size(); ++s) {
      jobs.push_back([&data, mode, epochs, &settings, s] {
        return train_setting(data, mode, epochs, settings[s], s);
      });
    }
  }
  runner::ParallelExecutor executor(opts.measure().threads);
  const auto runs = executor.map(std::move(jobs));
  const std::span<const std::vector<train::EpochStat>> all(runs);
  const Band p3_band =
      reduce_band(all.first(settings.size()), epochs, record_from);
  const Band dgc_band =
      reduce_band(all.subspan(settings.size()), epochs, record_from);

  Table table({"epoch", "P3 min", "P3 max", "DGC min", "DGC max"});
  CsvWriter csv(p3::bench::out("fig11_accuracy_band.csv"),
                {"epoch", "p3_min", "p3_max", "dgc_min", "dgc_max"});
  const std::size_t stride = std::max<std::size_t>(1, p3_band.lo.size() / 12);
  for (std::size_t i = 0; i < p3_band.lo.size(); ++i) {
    csv.row({static_cast<double>(record_from) + static_cast<double>(i),
             p3_band.lo[i], p3_band.hi[i], dgc_band.lo[i], dgc_band.hi[i]});
    if (i % stride == 0 || i + 1 == p3_band.lo.size()) {
      table.add_row({std::to_string(record_from + static_cast<int>(i)),
                     Table::num(p3_band.lo[i], 4), Table::num(p3_band.hi[i], 4),
                     Table::num(dgc_band.lo[i], 4),
                     Table::num(dgc_band.hi[i], 4)});
    }
  }
  table.print();
  std::printf("(csv: fig11_accuracy_band.csv)\n\n");
  std::printf("paper: P3's final accuracy is always better than DGC's; "
              "average drop with DGC ~0.4%%\n");
  std::printf("measured: final best P3 %.2f%% vs DGC %.2f%%; mean drop "
              "%.2f%%\n",
              100.0 * p3_band.final_best, 100.0 * dgc_band.final_best,
              100.0 * (p3_band.final_mean - dgc_band.final_mean));
  return 0;
}
