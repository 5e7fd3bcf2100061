#include "check.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <span>
#include <thread>

#include "core/thread_pool.h"
#include "tensor/ops.h"
#include "transformer/decoder.h"

namespace perfbench {

std::vector<TokenId> reference_generate(const voltage::TransformerModel& model,
                                        const std::vector<TokenId>& prompt,
                                        std::size_t new_tokens) {
  voltage::IncrementalDecoder decoder(model);
  std::vector<TokenId> out;
  if (new_tokens == 0) return out;
  voltage::Tensor logits =
      decoder.prime(std::span<const TokenId>(prompt.data(), prompt.size()));
  while (true) {
    out.push_back(static_cast<TokenId>(voltage::argmax_row(logits, 0)));
    if (out.size() >= new_tokens) break;
    logits = decoder.step(out.back());
  }
  return out;
}

bool score_matches(const voltage::TransformerModel& model,
                   const ScoreSample& sample) {
  const voltage::Tensor expected = model.infer(
      std::span<const TokenId>(sample.prompt.data(), sample.prompt.size()));
  return voltage::allclose(sample.logits, expected, kLogitTolerance);
}

bool greedy_choice(const voltage::Tensor& logits, TokenId token) {
  if (token < 0 || static_cast<std::size_t>(token) >= logits.cols()) {
    return false;
  }
  const std::span<const float> row = logits.row(0);
  const float best = *std::max_element(row.begin(), row.end());
  return row[static_cast<std::size_t>(token)] >= best - kTieTolerance;
}

bool generate_matches(const voltage::TransformerModel& model,
                      const GenerateSample& sample) {
  if (sample.tokens.size() != sample.new_tokens) return false;
  if (sample.tokens.empty()) return true;
  voltage::IncrementalDecoder decoder(model);
  voltage::Tensor logits = decoder.prime(
      std::span<const TokenId>(sample.prompt.data(), sample.prompt.size()));
  for (std::size_t i = 0; i < sample.tokens.size(); ++i) {
    if (!greedy_choice(logits, sample.tokens[i])) return false;
    if (i + 1 < sample.tokens.size()) logits = decoder.step(sample.tokens[i]);
  }
  return true;
}

CheckResult check_outputs(const voltage::TransformerModel& model,
                          const std::vector<ScoreSample>& scores,
                          const std::vector<GenerateSample>& generations) {
  const std::size_t total = scores.size() + generations.size();
  std::atomic<std::size_t> next{0};
  std::mutex mutex;
  CheckResult result;
  result.checked = total;
  const auto work = [&] {
    const voltage::IntraOpScope single(1);
    for (std::size_t i = next++; i < total; i = next++) {
      bool ok = false;
      try {
        ok = i < scores.size()
                 ? score_matches(model, scores[i])
                 : generate_matches(model, generations[i - scores.size()]);
      } catch (const std::exception&) {
        ok = false;  // a reference that cannot run counts as a mismatch
      }
      if (!ok) {
        const std::size_t index = i < scores.size()
                                      ? scores[i].index
                                      : generations[i - scores.size()].index;
        const std::lock_guard lock(mutex);
        result.mismatched.push_back(index);
      }
    }
  };
  std::vector<std::jthread> pool;
  for (std::size_t t = 1; t < kCheckThreads; ++t) {
    pool.emplace_back(work);
  }
  work();
  pool.clear();  // joins
  std::sort(result.mismatched.begin(), result.mismatched.end());
  return result;
}

}  // namespace perfbench
