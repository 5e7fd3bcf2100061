#include "quant/quantized_stack.h"

#include <stdexcept>

#include "partition/decode_attention.h"
#include "tensor/ops.h"
#include "transformer/ffn.h"

namespace voltage {

QuantizedStack::QuantizedStack(const TransformerModel& model)
    : config_(model.spec().layer) {
  layers_.reserve(model.spec().num_layers);
  for (const TransformerLayer& layer : model.layers()) {
    layers_.push_back(quantize_layer(layer.weights()));
    float_bytes_ += float_layer_byte_size(layer.weights());
  }
}

Tensor QuantizedStack::partition_forward(std::size_t layer, const Tensor& x,
                                         Range p, OrderPolicy policy) const {
  if (layer >= layers_.size()) {
    throw std::out_of_range("QuantizedStack: layer index");
  }
  return quantized_partitioned_layer_forward(config_, layers_[layer], x, p,
                                             policy);
}

Tensor QuantizedStack::forward_layers(Tensor x) const {
  for (const QuantizedLayerWeights& layer : layers_) {
    x = quantized_layer_forward(config_, layer, x);
  }
  return x;
}

Tensor QuantizedStack::decode_step_tail(std::size_t layer,
                                        const Tensor& merged,
                                        const Tensor& x) const {
  if (layer >= layers_.size()) {
    throw std::out_of_range("QuantizedStack: layer index");
  }
  const QuantizedLayerWeights& w = layers_[layer];
  Tensor r = quantized_matmul(
      softmax_merge_concat(merged, config_.heads, config_.head_dim), w.wo);
  add_bias_inplace(r, w.bo);
  add_inplace(r, x);
  const Tensor y =
      layernorm_rows(r, w.ln_attention.gamma, w.ln_attention.beta);

  Tensor hidden = quantized_matmul(y, w.w1);
  ffn_activation_inplace(hidden, w.b1, config_.activation);
  Tensor out = quantized_matmul(hidden, w.w2);
  add_bias_inplace(out, w.b2);
  add_inplace(out, y);
  return layernorm_rows(out, w.ln_ffn.gamma, w.ln_ffn.beta);
}

std::size_t QuantizedStack::byte_size() const {
  std::size_t bytes = 0;
  for (const QuantizedLayerWeights& layer : layers_) {
    bytes += layer.byte_size();
  }
  return bytes;
}

}  // namespace voltage
