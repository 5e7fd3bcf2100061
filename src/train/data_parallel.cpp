#include "train/data_parallel.h"

#include <memory>
#include <numeric>
#include <stdexcept>

#include "collective/collectives.h"
#include "net/fabric.h"
#include "tensor/ops.h"
#include "tensor/rng.h"
#include "train/loss.h"
#include "train/sgd.h"

namespace voltage {

DataParallelTrainer::DataParallelTrainer(LayerConfig config,
                                         std::size_t num_layers,
                                         std::size_t num_classes,
                                         std::size_t devices,
                                         std::uint64_t seed)
    : config_(config),
      num_classes_(num_classes),
      mesh_(std::make_unique<Fabric>(devices + 1)) {
  config_.validate();
  if (num_layers == 0 || num_classes == 0 || devices == 0) {
    throw std::invalid_argument("DataParallelTrainer: zero-sized argument");
  }
  // One RNG: every replica starts from the same weights.
  Rng rng(seed);
  Replica prototype;
  for (std::size_t l = 0; l < num_layers; ++l) {
    prototype.layers.emplace_back(config_, init_layer_weights(config_, rng));
  }
  prototype.head_w = rng.normal_tensor(config_.hidden, num_classes, 0.2F);
  prototype.head_b = Tensor(1, num_classes);
  replicas_.assign(devices, prototype);
}

DataParallelTrainer::SampleGrads DataParallelTrainer::sample_grads(
    const Replica& replica, const Sample& sample) const {
  StackCache cache;
  const Tensor hidden =
      stack_forward_cached(replica.layers, sample.x, cache);
  const Tensor pooled = mean_rows(hidden);
  Tensor logits = matmul(pooled, replica.head_w);
  add_bias_inplace(logits, replica.head_b);

  const std::size_t labels[] = {sample.label};
  const LossResult loss =
      softmax_cross_entropy(logits, std::span<const std::size_t>(labels));

  const MatmulGrads head = matmul_grad(pooled, replica.head_w, loss.dlogits);
  // Mean pooling spreads the pooled gradient evenly over the rows.
  Tensor dhidden(hidden.rows(), hidden.cols());
  const float inv_rows = 1.0F / static_cast<float>(hidden.rows());
  for (std::size_t r = 0; r < hidden.rows(); ++r) {
    for (std::size_t c = 0; c < hidden.cols(); ++c) {
      dhidden(r, c) = head.da(0, c) * inv_rows;
    }
  }
  const StackBackwardResult back =
      stack_backward(replica.layers, cache, std::move(dhidden));

  // Flatten layer grads + head grads into one ring payload.
  std::vector<Tensor> pieces;
  pieces.reserve(back.grads.size() + 2);
  for (const LayerGrads& g : back.grads) pieces.push_back(flatten_grads(g));
  Tensor head_w_flat(1, head.db.size());
  std::copy(head.db.flat().begin(), head.db.flat().end(),
            head_w_flat.flat().begin());
  pieces.push_back(std::move(head_w_flat));
  pieces.push_back(bias_grad(loss.dlogits));

  std::size_t total = 0;
  for (const Tensor& p : pieces) total += p.size();
  // One column: ring_all_reduce_sum chunks by rows, so every ring message
  // carries a 1/K share instead of one message carrying all of it.
  Tensor flat(total, 1);
  std::size_t offset = 0;
  for (const Tensor& p : pieces) {
    std::copy(p.flat().begin(), p.flat().end(),
              flat.flat().begin() + static_cast<std::ptrdiff_t>(offset));
    offset += p.size();
  }
  return SampleGrads{.loss = loss.loss, .flat = std::move(flat)};
}

void DataParallelTrainer::apply_flat(Replica& replica, const Tensor& flat,
                                     float learning_rate) const {
  std::size_t offset = 0;
  for (TransformerLayer& layer : replica.layers) {
    LayerGrads grads = zero_grads_like(layer.weights());
    const std::size_t count = flatten_grads(grads).size();
    Tensor slice(1, count);
    std::copy(flat.flat().begin() + static_cast<std::ptrdiff_t>(offset),
              flat.flat().begin() + static_cast<std::ptrdiff_t>(offset + count),
              slice.flat().begin());
    unflatten_grads(slice, grads);
    apply_sgd(layer.mutable_weights(), grads, learning_rate);
    offset += count;
  }
  auto fw = replica.head_w.flat();
  for (std::size_t i = 0; i < fw.size(); ++i) {
    fw[i] -= learning_rate * flat.flat()[offset + i];
  }
  offset += fw.size();
  auto fb = replica.head_b.flat();
  for (std::size_t i = 0; i < fb.size(); ++i) {
    fb[i] -= learning_rate * flat.flat()[offset + i];
  }
  offset += fb.size();
  if (offset != flat.size()) {
    throw std::logic_error("DataParallelTrainer: gradient layout mismatch");
  }
}

float DataParallelTrainer::step(std::span<const Sample> samples,
                                float learning_rate) {
  const std::size_t k = devices();
  if (samples.size() != k) {
    throw std::invalid_argument(
        "DataParallelTrainer: one sample per device required");
  }
  std::vector<DeviceId> group(k);
  std::iota(group.begin(), group.end(), DeviceId{0});

  std::vector<float> losses(k);
  const float inv_k = 1.0F / static_cast<float>(k);
  const auto device_part = [&](std::size_t d) {
    SampleGrads grads = sample_grads(replicas_[d], samples[d]);
    losses[d] = grads.loss;
    // One tag serves every step: a mesh run drains its own messages.
    Tensor summed = k == 1 ? std::move(grads.flat)
                           : ring_all_reduce_sum(mesh_.transport(), group, d,
                                                 std::move(grads.flat),
                                                 MessageTag{1});
    scale_inplace(summed, inv_k);
    apply_flat(replicas_[d], summed, learning_rate);
  };
  mesh_.run(device_part, [] {});
  ++steps_;

  float mean = 0.0F;
  for (const float l : losses) mean += l;
  return mean * inv_k;
}

Tensor DataParallelTrainer::predict(const Tensor& x) const {
  const Replica& r = replicas_.front();
  Tensor hidden = x;
  for (const TransformerLayer& layer : r.layers) {
    hidden = layer.forward(hidden);
  }
  Tensor logits = matmul(mean_rows(hidden), r.head_w);
  add_bias_inplace(logits, r.head_b);
  return logits;
}

float DataParallelTrainer::evaluate(const Sample& sample) const {
  const Tensor logits = predict(sample.x);
  const std::size_t labels[] = {sample.label};
  return softmax_cross_entropy(logits, std::span<const std::size_t>(labels))
      .loss;
}

float DataParallelTrainer::replica_divergence() const {
  float worst = 0.0F;
  for (std::size_t d = 1; d < replicas_.size(); ++d) {
    worst = std::max(worst, max_abs_diff(replicas_.front().head_w,
                                         replicas_[d].head_w));
    worst = std::max(
        worst, max_abs_diff(replicas_.front().layers.front().weights().ffn.w1,
                            replicas_[d].layers.front().weights().ffn.w1));
  }
  return worst;
}

}  // namespace voltage
