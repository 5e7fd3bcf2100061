// Position-wise feed-forward network: FFN(x) = Act(xW1 + b1)W2 + b2.
#pragma once

#include "tensor/tensor.h"
#include "transformer/config.h"
#include "transformer/weights.h"

namespace voltage {

[[nodiscard]] Tensor ffn_forward(const Tensor& x, const FfnWeights& w,
                                 Activation activation);

// hidden = Act(hidden + b1) in place, b1 being 1 x cols: the FFN's first
// bias and activation, one pass for GELU (bias_gelu_inplace).
void ffn_activation_inplace(Tensor& hidden, const Tensor& b1,
                            Activation activation);

}  // namespace voltage
