// Output check, run off the clock once the server has been torn down.
//
// Scoring logits must be allclose to TransformerModel::infer within 2e-3
// (the tolerance of the runtime tests): distributed prefill sums in a
// different order, so it is close but not bitwise equal.
//
// Generations are replayed token by token through single-device
// IncrementalDecoder, fed the served tokens: each served token must be the
// greedy choice of the reference logits. Because the prefill is not bitwise
// equal (a few 1e-6), a reference whose top logits tie exactly can break the
// tie the other way in the server; a served token whose reference logit is
// within kTieTolerance of the maximum is therefore accepted too. Every other
// token must match exactly.
#pragma once

#include <cstddef>
#include <vector>

#include "tensor/tensor.h"
#include "transformer/model.h"
#include "workload.h"

namespace perfbench {

inline constexpr float kLogitTolerance = 2e-3F;
// About 40x the prefill's deviation from the reference, and far below the
// usual gap between the two largest logits.
inline constexpr float kTieTolerance = 1e-4F;
// Threads of the check: one per core of the reference host.
inline constexpr std::size_t kCheckThreads = 4;

struct ScoreSample {
  std::size_t index = 0;  // request index in the stream
  std::vector<TokenId> prompt;
  voltage::Tensor logits;
};

struct GenerateSample {
  std::size_t index = 0;
  std::vector<TokenId> prompt;
  std::vector<TokenId> tokens;
  std::size_t new_tokens = 0;  // requested continuation length
};

[[nodiscard]] std::vector<TokenId> reference_generate(
    const voltage::TransformerModel& model, const std::vector<TokenId>& prompt,
    std::size_t new_tokens);

// True if `token` is row 0's largest logit, or within kTieTolerance of it.
[[nodiscard]] bool greedy_choice(const voltage::Tensor& logits, TokenId token);

[[nodiscard]] bool score_matches(const voltage::TransformerModel& model,
                                 const ScoreSample& sample);
[[nodiscard]] bool generate_matches(const voltage::TransformerModel& model,
                                    const GenerateSample& sample);

struct CheckResult {
  std::size_t checked = 0;
  std::vector<std::size_t> mismatched;  // request indices, ascending
};

// Checks every sample, spreading the references over kCheckThreads threads.
[[nodiscard]] CheckResult check_outputs(
    const voltage::TransformerModel& model,
    const std::vector<ScoreSample>& scores,
    const std::vector<GenerateSample>& generations);

}  // namespace perfbench
