// Replicated-weights data-parallel trainer — the paper's §V-C training
// story as a reusable component.
//
// K devices each hold a full replica of a small transformer stack plus a
// mean-pool linear classifier. Every step is one run on a persistent Mesh
// (runtime/mesh.h): device d computes the gradients of ITS sample, the
// flattened gradients are ring-all-reduced (the once-per-batch weight
// synchronization §V-C describes), and each replica applies the identical
// averaged update — so the replicas stay bit-identical forever, which the
// tests assert. A step that fails on any device fails as a whole with the
// root cause, and the trainer is dead afterwards (the mesh's containment):
// every later step throws std::logic_error.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "runtime/mesh.h"
#include "tensor/tensor.h"
#include "train/stack_backward.h"
#include "transformer/layer.h"

namespace voltage {

class DataParallelTrainer {
 public:
  struct Sample {
    Tensor x;           // sequence [N x F]
    std::size_t label;  // class index
  };

  DataParallelTrainer(LayerConfig config, std::size_t num_layers,
                      std::size_t num_classes, std::size_t devices,
                      std::uint64_t seed);

  // One synchronous training step: device d trains on samples[d]
  // (samples.size() must equal devices()). Returns the mean loss.
  float step(std::span<const Sample> samples, float learning_rate);

  // Logits for one sequence under replica 0's current weights.
  [[nodiscard]] Tensor predict(const Tensor& x) const;
  // Loss of one sample under replica 0's current weights.
  [[nodiscard]] float evaluate(const Sample& sample) const;

  [[nodiscard]] std::size_t devices() const noexcept {
    return replicas_.size();
  }
  [[nodiscard]] std::size_t steps_taken() const noexcept { return steps_; }
  // Max abs difference between two replicas' weights (0 when in lockstep).
  [[nodiscard]] float replica_divergence() const;
  // Byte-accurate gradient traffic since construction (devices 0..K-1;
  // endpoint K is the mesh's idle terminal).
  [[nodiscard]] const Transport& fabric() const noexcept {
    return mesh_.transport();
  }

 private:
  struct Replica {
    std::vector<TransformerLayer> layers;
    Tensor head_w;  // F x classes
    Tensor head_b;  // 1 x classes
  };

  struct SampleGrads {
    float loss = 0.0F;
    Tensor flat;  // layers' grads + head grads, flattened for the ring
  };

  [[nodiscard]] SampleGrads sample_grads(const Replica& replica,
                                         const Sample& sample) const;
  void apply_flat(Replica& replica, const Tensor& flat,
                  float learning_rate) const;

  LayerConfig config_;
  std::size_t num_classes_;
  std::vector<Replica> replicas_;
  std::size_t steps_ = 0;
  Mesh mesh_;  // last: its workers stop before the replicas die
};

}  // namespace voltage
