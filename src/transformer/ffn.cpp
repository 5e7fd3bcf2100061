#include "transformer/ffn.h"

#include "tensor/ops.h"

namespace voltage {

Tensor ffn_forward(const Tensor& x, const FfnWeights& w,
                   Activation activation) {
  Tensor hidden = matmul(x, w.w1);
  ffn_activation_inplace(hidden, w.b1, activation);
  Tensor out = matmul(hidden, w.w2);
  add_bias_inplace(out, w.b2);
  return out;
}

void ffn_activation_inplace(Tensor& hidden, const Tensor& b1,
                            Activation activation) {
  if (activation == Activation::kGelu) {
    bias_gelu_inplace(hidden, b1);
  } else {
    add_bias_inplace(hidden, b1);
    hidden = relu(hidden);
  }
}

}  // namespace voltage
