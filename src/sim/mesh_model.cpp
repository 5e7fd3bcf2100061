#include "sim/mesh_model.h"

#include <algorithm>
#include <stdexcept>

#include "parallel/latency_model.h"

namespace voltage::sim {

namespace {

// The committed benchmarks ran over SocketFabric on loopback: negligible
// serialization time, a small per-message syscall/framing cost.
constexpr LinkModel kLoopbackLink{.bandwidth_bps = 10e9,
                                  .per_message_latency = 20e-6};

}  // namespace

MeshModel::MeshModel(std::size_t devices, std::vector<StepPoint> curve,
                     double prefill_tokens_per_s, Seconds prefill_overhead,
                     const LinkModel& calibration_link)
    : devices_(devices),
      curve_(std::move(curve)),
      prefill_tokens_per_s_(prefill_tokens_per_s),
      prefill_overhead_(prefill_overhead),
      calibration_link_(calibration_link) {
  if (devices_ == 0 || curve_.empty() || prefill_tokens_per_s_ <= 0.0 ||
      prefill_overhead_ < 0.0) {
    throw std::invalid_argument("MeshModel: bad calibration");
  }
  for (std::size_t i = 0; i < curve_.size(); ++i) {
    if (curve_[i].batch < 1.0 || curve_[i].step_time <= 0.0 ||
        curve_[i].bytes_per_step < 0.0 || curve_[i].messages_per_step < 0.0) {
      throw std::invalid_argument("MeshModel: bad curve point");
    }
    if (i > 0 && curve_[i].batch <= curve_[i - 1].batch) {
      throw std::invalid_argument(
          "MeshModel: curve must be sorted by increasing batch");
    }
  }
}

MeshModel MeshModel::from_bench_serving() {
  // BENCH_serving.json, fp32, K=4, mini-gpt2-serving: step time is
  // batch / tokens_per_s at the measured B ∈ {1, 4, 16}.
  std::vector<StepPoint> curve{
      {.batch = 1.0,
       .step_time = 1.0 / 417.955,
       .bytes_per_step = 17320.0,
       .messages_per_step = 29.0},
      {.batch = 4.0,
       .step_time = 4.0 / 792.072,
       .bytes_per_step = 64408.0,
       .messages_per_step = 29.0},
      {.batch = 16.0,
       .step_time = 16.0 / 957.099,
       .bytes_per_step = 252760.0,
       .messages_per_step = 29.0},
  };
  // BENCH_decode.json, K=4, context 256: the recompute path produces one
  // token per full 256-position forward at 22.4572 tokens/s, so a batched
  // prefill pass runs at 256 * 22.4572 ≈ 5749 prompt tokens/s.
  return MeshModel(4, std::move(curve), 256.0 * 22.4572, 0.0, kLoopbackLink);
}

MeshModel MeshModel::with_link(const LinkModel& link) const {
  std::vector<StepPoint> repriced = curve_;
  for (StepPoint& p : repriced) {
    const Seconds wire_cal = decode_step_wire_time(
        p.messages_per_step, p.bytes_per_step, calibration_link_);
    const Seconds wire_new =
        decode_step_wire_time(p.messages_per_step, p.bytes_per_step, link);
    // Compute share of the measured step, floored at 5% in case the stated
    // calibration link overprices the measured wire.
    const Seconds compute =
        std::max(p.step_time - wire_cal, 0.05 * p.step_time);
    p.step_time = compute + wire_new;
  }
  MeshModel result(devices_, std::move(repriced), prefill_tokens_per_s_,
                   prefill_overhead_, link);
  result.spec_rows_ = spec_rows_;
  result.spec_tokens_ = spec_tokens_;
  return result;
}

double MeshModel::expected_tokens_per_step(std::size_t draft_tokens,
                                           double accept_rate) {
  if (accept_rate < 0.0 || accept_rate > 1.0) {
    throw std::invalid_argument(
        "MeshModel: acceptance rate must be in [0, 1]");
  }
  double expected = 1.0;
  double run = 1.0;
  for (std::size_t i = 0; i < draft_tokens; ++i) {
    run *= accept_rate;
    expected += run;
  }
  return expected;
}

MeshModel MeshModel::with_speculation(std::size_t draft_tokens,
                                      double accept_rate) const {
  MeshModel result = *this;
  result.spec_rows_ =
      spec_rows_ * static_cast<double>(1 + draft_tokens);
  result.spec_tokens_ =
      spec_tokens_ * expected_tokens_per_step(draft_tokens, accept_rate);
  return result;
}

Seconds MeshModel::step_time(double batch) const {
  if (batch <= 0.0) {
    throw std::invalid_argument("MeshModel::step_time: batch <= 0");
  }
  // Lanes -> rows: a speculative step carrying W rows per lane prices like
  // a W-times-larger single-row batch (same protocol shape on the wire).
  batch *= spec_rows_;
  if (batch <= curve_.front().batch) return curve_.front().step_time;
  for (std::size_t i = 1; i < curve_.size(); ++i) {
    if (batch <= curve_[i].batch) {
      const StepPoint& lo = curve_[i - 1];
      const StepPoint& hi = curve_[i];
      const double w = (batch - lo.batch) / (hi.batch - lo.batch);
      return lo.step_time + w * (hi.step_time - lo.step_time);
    }
  }
  // Beyond the largest measured batch: continue the last segment's slope
  // (the curve is already in its near-linear regime there).
  const StepPoint& lo =
      curve_.size() > 1 ? curve_[curve_.size() - 2] : curve_.back();
  const StepPoint& hi = curve_.back();
  const double slope = curve_.size() > 1
                           ? (hi.step_time - lo.step_time) /
                                 (hi.batch - lo.batch)
                           : hi.step_time / hi.batch;
  return hi.step_time + (batch - hi.batch) * slope;
}

Seconds MeshModel::prefill_time(std::size_t prompt_tokens) const {
  return prefill_overhead_ +
         static_cast<double>(prompt_tokens) / prefill_tokens_per_s_;
}

double MeshModel::saturated_tokens_per_s() const {
  // At saturation the mesh moves rows at the top calibration point's rate;
  // every spec_rows_ rows commit spec_tokens_ tokens (both 1.0 when no
  // speculation is modelled).
  const StepPoint& top = curve_.back();
  return (top.batch / top.step_time) * spec_tokens_ / spec_rows_;
}

Seconds MeshModel::token_time(std::size_t lanes) const {
  const auto b = static_cast<double>(lanes);
  return step_time(b) / (b * spec_tokens_);
}

double MeshModel::max_calibrated_batch() const {
  // In lanes: window rows eat into the calibrated row budget.
  return std::max(1.0, curve_.back().batch / spec_rows_);
}

}  // namespace voltage::sim
