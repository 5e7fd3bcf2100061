// Continuous-batching mesh service model, calibrated from measured numbers.
//
// One "mesh" is a K-device Voltage deployment running the PR-8 batched
// decoder: every decode step generates one token for each of the B active
// sequences, and the step's wall time grows sublinearly in B (compute
// amortizes the per-step collective round-trips). Rather than re-deriving
// that curve from first principles, the model interpolates the committed
// measurements:
//
//   - BENCH_serving.json (fp32, K=4): per-step wall time at B ∈ {1, 4, 16}
//     plus the per-step wire profile (messages constant in B, bytes
//     sublinear) — the occupancy curve;
//   - BENCH_decode.json (K=4, context 256): the full-forward rate that
//     prices prefill (a 256-token recompute step = one batched prefill
//     pass over 256 positions).
//
// with_link() re-prices the wire share of each calibration point from the
// benchmark's loopback-socket link onto an arbitrary LinkModel through the
// latency_model hook (decode_step_wire_time), so the same compute curve
// answers questions about 500 Mbps edge links.
#pragma once

#include <cstddef>
#include <vector>

#include "net/link.h"

namespace voltage::sim {

// One calibration point of the occupancy curve.
struct StepPoint {
  double batch = 1.0;             // concurrent sequences in the step
  Seconds step_time = 0.0;        // measured wall time of one decode step
  double bytes_per_step = 0.0;    // wire bytes the step moves
  double messages_per_step = 0.0; // wire messages the step sends
};

class MeshModel {
 public:
  // `curve` must be non-empty, sorted by strictly increasing batch, with
  // positive step times. `calibration_link` is the link the curve was
  // measured over (loopback for the committed benchmarks).
  MeshModel(std::size_t devices, std::vector<StepPoint> curve,
            double prefill_tokens_per_s, Seconds prefill_overhead,
            const LinkModel& calibration_link);

  // The committed BENCH_serving.json fp32 K=4 occupancy curve plus the
  // BENCH_decode.json prefill rate.
  [[nodiscard]] static MeshModel from_bench_serving();

  // Same compute behaviour over a different link: for every calibration
  // point the calibration link's wire time is subtracted and the new
  // link's added (never below the compute floor).
  [[nodiscard]] MeshModel with_link(const LinkModel& link) const;

  // Models the PR-10 speculative decoder: every step verifies a window of
  // 1 + draft_tokens rows per lane in the same collective round and commits
  // expected_tokens_per_step(draft_tokens, accept_rate) tokens per lane.
  // On the wire and in compute a W-row window is indistinguishable from W
  // single-row lanes (identical protocol shape), so step_time(b) prices a
  // speculative step at the calibrated curve's b * W point — compute
  // amortization, linear bytes and constant messages all fall out of the
  // measurements. `accept_rate` is the per-draft acceptance probability in
  // [0, 1]; draft_tokens == 0 is a no-op.
  [[nodiscard]] MeshModel with_speculation(std::size_t draft_tokens,
                                           double accept_rate) const;

  // Expected committed tokens of one verify round with a k-draft window at
  // per-draft acceptance p: 1 + p + p^2 + ... + p^k = (1 - p^(k+1))/(1 - p)
  // (k + 1 at p == 1) — acceptance stops at the first rejected draft.
  [[nodiscard]] static double expected_tokens_per_step(std::size_t draft_tokens,
                                                       double accept_rate);

  // Piecewise-linear in batch over the calibration points (batch counts
  // lanes; a speculative model prices its window rows internally);
  // extrapolates the last segment's slope beyond the largest measured batch.
  [[nodiscard]] Seconds step_time(double batch) const;

  // Tokens one decode step commits per lane: 1.0 for a plain model, the
  // expected acceptance run length for a with_speculation model.
  [[nodiscard]] double tokens_per_step() const noexcept {
    return spec_tokens_;
  }

  // Time a joining request's prompt occupies the mesh before its sequence
  // can take part in decode steps.
  [[nodiscard]] Seconds prefill_time(std::size_t prompt_tokens) const;

  // Decode throughput when every step runs at the largest calibrated
  // batch.
  [[nodiscard]] double saturated_tokens_per_s() const;

  // Mesh-seconds one committed token costs when `lanes` sequences share
  // every step: step_time(lanes) / (lanes * tokens_per_step()). A mesh
  // capped at `lanes` concurrent sequences never runs a wider step, so
  // this, not the curve's top point, prices its demand in the stability
  // bound (sim/fleet.h, tools/capacity_planner).
  [[nodiscard]] Seconds token_time(std::size_t lanes) const;

  [[nodiscard]] double max_calibrated_batch() const;
  [[nodiscard]] std::size_t devices() const noexcept { return devices_; }
  [[nodiscard]] const std::vector<StepPoint>& curve() const noexcept {
    return curve_;
  }

 private:
  std::size_t devices_ = 1;
  std::vector<StepPoint> curve_;
  double prefill_tokens_per_s_ = 1.0;
  Seconds prefill_overhead_ = 0.0;
  LinkModel calibration_link_;
  // Speculation shape (identity for a plain model): rows each lane carries
  // per step and the expected tokens those rows commit.
  double spec_rows_ = 1.0;
  double spec_tokens_ = 1.0;
};

}  // namespace voltage::sim
