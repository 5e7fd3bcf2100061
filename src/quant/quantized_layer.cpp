#include "quant/quantized_layer.h"

#include <cmath>
#include <stdexcept>

#include "tensor/ops.h"
#include "transformer/attention.h"
#include "transformer/ffn.h"

namespace voltage {

namespace {

// `xq`/`xpq` are the full input and the partition rows quantized once by the
// caller — every head's Q/K/V projection reuses them instead of re-running
// the per-row quantize pass (3H times per layer on the same operand).
Tensor quantized_head_partition(const LayerConfig& config,
                                const QuantizedHeadWeights& w,
                                const Tensor& x,
                                const QuantizedActivations& xq,
                                const QuantizedActivations& xpq, Range p,
                                AttentionOrder order) {
  const float inv_sqrt =
      1.0F / std::sqrt(static_cast<float>(config.head_dim));
  if (order == AttentionOrder::kReordered) {
    const Tensor qp = quantized_matmul(xpq, w.wq);
    const Tensor qk = quantized_matmul(qp, w.wk_t);  // P x F
    Tensor scores = matmul(qk, x, Trans::kNo, Trans::kYes);
    if (config.causal) apply_causal_mask(scores, p.begin);
    const Tensor s = softmax_rows(scores, inv_sqrt);
    return quantized_matmul(matmul(s, x), w.wv);
  }
  const Tensor qp = quantized_matmul(xpq, w.wq);
  const Tensor k = quantized_matmul(xq, w.wk);
  Tensor scores = matmul(qp, k, Trans::kNo, Trans::kYes);
  if (config.causal) apply_causal_mask(scores, p.begin);
  const Tensor s = softmax_rows(scores, inv_sqrt);
  return matmul(s, quantized_matmul(xq, w.wv));
}

}  // namespace

std::size_t QuantizedLayerWeights::byte_size() const {
  std::size_t bytes = 0;
  for (const QuantizedHeadWeights& h : heads) {
    bytes += h.wq.byte_size() + h.wk.byte_size() + h.wv.byte_size() +
             h.wk_t.byte_size();
  }
  bytes += wo.byte_size() + w1.byte_size() + w2.byte_size();
  bytes += (bo.size() + b1.size() + b2.size()) * sizeof(float);
  bytes += (ln_attention.gamma.size() + ln_attention.beta.size() +
            ln_ffn.gamma.size() + ln_ffn.beta.size()) *
           sizeof(float);
  return bytes;
}

QuantizedLayerWeights quantize_layer(const LayerWeights& w) {
  QuantizedLayerWeights q;
  q.heads.reserve(w.attention.heads.size());
  for (const HeadWeights& h : w.attention.heads) {
    q.heads.push_back(QuantizedHeadWeights{
        .wq = quantize_weights(h.wq),
        .wk = quantize_weights(h.wk),
        .wk_t = quantize_weights(h.wk.transposed()),
        .wv = quantize_weights(h.wv),
    });
  }
  q.wo = quantize_weights(w.attention.wo);
  q.bo = w.attention.bo;
  q.ln_attention = w.ln_attention;
  q.w1 = quantize_weights(w.ffn.w1);
  q.b1 = w.ffn.b1;
  q.w2 = quantize_weights(w.ffn.w2);
  q.b2 = w.ffn.b2;
  q.ln_ffn = w.ln_ffn;
  return q;
}

std::size_t float_layer_byte_size(const LayerWeights& w) {
  return w.parameter_count() * sizeof(float);
}

Tensor quantized_partitioned_layer_forward(const LayerConfig& config,
                                           const QuantizedLayerWeights& w,
                                           const Tensor& x, Range p,
                                           OrderPolicy policy) {
  config.validate();
  if (p.end > x.rows()) {
    throw std::out_of_range("quantized layer: range exceeds input");
  }
  if (p.empty()) return Tensor(0, config.hidden);
  if (w.heads.size() != config.heads) {
    throw std::invalid_argument("quantized layer: head count mismatch");
  }
  const Tensor xp = x.slice_rows(p.begin, p.end);
  const AttentionDims dims{.n = x.rows(),
                           .p = p.size(),
                           .f = config.hidden,
                           .fh = config.head_dim};
  const AttentionOrder order = select_order(policy, dims);

  const QuantizedActivations xq = quantize_activations(x);
  const QuantizedActivations xpq = quantize_activations(xp);
  std::vector<Tensor> heads;
  heads.reserve(config.heads);
  for (const QuantizedHeadWeights& head : w.heads) {
    heads.push_back(
        quantized_head_partition(config, head, x, xq, xpq, p, order));
  }
  Tensor r = quantized_matmul(concat_cols(heads), w.wo);
  add_bias_inplace(r, w.bo);
  add_inplace(r, xp);
  const Tensor y =
      layernorm_rows(r, w.ln_attention.gamma, w.ln_attention.beta);

  Tensor hidden = quantized_matmul(y, w.w1);
  ffn_activation_inplace(hidden, w.b1, config.activation);
  Tensor out = quantized_matmul(hidden, w.w2);
  add_bias_inplace(out, w.b2);
  add_inplace(out, y);
  return layernorm_rows(out, w.ln_ffn.gamma, w.ln_ffn.beta);
}

Tensor quantized_layer_forward(const LayerConfig& config,
                               const QuantizedLayerWeights& w,
                               const Tensor& x) {
  return quantized_partitioned_layer_forward(
      config, w, x, Range{0, x.rows()}, OrderPolicy::kAlwaysNaive);
}

}  // namespace voltage
