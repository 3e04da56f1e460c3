// SGD with (Nesterov) momentum, weight decay and step decay — the optimizer
// configuration the paper's CIFAR experiments use.
#pragma once

#include <cstddef>
#include <vector>

#include "train/mlp.h"

namespace p3::train {

struct SgdConfig {
  double lr = 0.1;
  double momentum = 0.9;
  bool nesterov = false;
  double weight_decay = 0.0;
  /// Learning rate is multiplied by `decay_factor` at each epoch listed.
  std::vector<int> decay_epochs{};
  double decay_factor = 0.1;
};

class Sgd {
 public:
  explicit Sgd(SgdConfig config) : cfg_(config) {}

  /// Effective learning rate for `epoch` after step decays.
  double lr_at_epoch(int epoch) const;

  /// Apply one update to `params` using the gradients stored in them.
  /// Momentum buffers are lazily sized to match.
  void step(std::vector<Param>& params, int epoch);

  /// Apply an update from externally supplied gradients (e.g. aggregated or
  /// decompressed gradients in the data-parallel trainer). `grads[i]` must
  /// match `params[i]` in shape.
  void step_with(std::vector<Param>& params, const std::vector<Tensor>& grads,
                 int epoch);

  const SgdConfig& config() const { return cfg_; }

 private:
  SgdConfig cfg_;
  std::vector<Tensor> velocity_;
};

}  // namespace p3::train
