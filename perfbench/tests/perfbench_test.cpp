// Tests of the benchmark itself: seeded request streams, the percentile
// helper, and the output check.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "check.h"
#include "obs/percentile.h"
#include "stats.h"
#include "transformer/tokenizer.h"
#include "workload.h"

namespace perfbench {
namespace {

constexpr double kSeconds = 10.0;

TEST(RequestStream, SameSeedSameDigestOtherSeedOther) {
  for (const std::string_view name : workload_names()) {
    const WorkloadSpec spec = *workload_by_name(name);
    const std::uint64_t a = request_digest(spec, 1, kSeconds, 200);
    EXPECT_EQ(a, request_digest(spec, 1, kSeconds, 200)) << name;
    EXPECT_NE(a, request_digest(spec, 2, kSeconds, 200)) << name;
  }
}

TEST(RequestStream, OpenLoopOffersTheNominalRateInsideTheWindow) {
  const WorkloadSpec spec = *workload_by_name("classify");
  RequestStream stream(spec, 3, kSeconds);
  EXPECT_EQ(stream.planned(), static_cast<std::size_t>(spec.rate * kSeconds));
  double last = 0.0;
  std::size_t count = 0;
  while (const std::optional<Request> r = stream.next()) {
    EXPECT_GE(r->due_s, last);
    EXPECT_LT(r->due_s, kSeconds);
    EXPECT_GE(r->prompt.size(), spec.score_prompt.min);
    EXPECT_LE(r->prompt.size(), spec.score_prompt.max);
    last = r->due_s;
    ++count;
  }
  EXPECT_EQ(count, stream.planned());
}

TEST(RequestStream, ChatMixesBothClassesWithinTheirBounds) {
  const WorkloadSpec spec = *workload_by_name("chat");
  RequestStream stream(spec, 4, kSeconds);
  std::size_t generations = 0;
  std::size_t total = 0;
  while (const std::optional<Request> r = stream.next()) {
    ++total;
    if (!r->generate()) continue;
    ++generations;
    EXPECT_GE(r->new_tokens, spec.min_new_tokens);
    EXPECT_LE(r->new_tokens, spec.max_new_tokens);
    EXPECT_LE(r->prompt.size() + r->new_tokens,
              bench_model_spec().max_positions);
  }
  const double share =
      static_cast<double>(generations) / static_cast<double>(total);
  EXPECT_NEAR(share, spec.generate_share, 0.06);
}

TEST(Percentile, IsTheProgramsNearestRankAndZeroWhenEmpty) {
  EXPECT_EQ(percentile({}, 0.5), 0.0);
  const std::vector<double> samples{4.0, 1.0, 3.0, 2.0, 5.0};
  std::vector<double> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  for (const double q : {0.0, 0.2, 0.5, 0.9, 1.0}) {
    EXPECT_EQ(percentile(samples, q), voltage::obs::nearest_rank(sorted, q));
  }
  EXPECT_EQ(median(samples), 3.0);
}

class OutputCheck : public ::testing::Test {
 protected:
  OutputCheck() : model_(bench_model_spec(), kModelSeed) {}

  [[nodiscard]] std::vector<TokenId> prompt(std::size_t n) const {
    return voltage::random_tokens(n, model_.spec().vocab_size, 5);
  }

  voltage::TransformerModel model_;
};

TEST_F(OutputCheck, AcceptsReferenceOutputs) {
  const ScoreSample score{.index = 0,
                          .prompt = prompt(24),
                          .logits = model_.infer(prompt(24))};
  const GenerateSample generation{
      .index = 1,
      .prompt = prompt(12),
      .tokens = reference_generate(model_, prompt(12), 6),
      .new_tokens = 6};
  const CheckResult result = check_outputs(model_, {score}, {generation});
  EXPECT_EQ(result.checked, 2U);
  EXPECT_TRUE(result.mismatched.empty());
}

TEST_F(OutputCheck, AcceptsLogitsWithinTolerance) {
  ScoreSample score{.index = 0,
                    .prompt = prompt(24),
                    .logits = model_.infer(prompt(24))};
  score.logits(0, 3) += kLogitTolerance / 2;
  EXPECT_TRUE(score_matches(model_, score));
}

TEST_F(OutputCheck, RejectsACorruptedLogit) {
  ScoreSample score{.index = 7,
                    .prompt = prompt(24),
                    .logits = model_.infer(prompt(24))};
  score.logits(0, 3) += 4 * kLogitTolerance;
  EXPECT_FALSE(score_matches(model_, score));
  const CheckResult result = check_outputs(model_, {score}, {});
  EXPECT_EQ(result.mismatched, std::vector<std::size_t>{7});
}

TEST_F(OutputCheck, RejectsACorruptedToken) {
  GenerateSample generation{
      .index = 9,
      .prompt = prompt(12),
      .tokens = reference_generate(model_, prompt(12), 6),
      .new_tokens = 6};
  generation.tokens[4] =
      (generation.tokens[4] + 1) % static_cast<TokenId>(model_.spec().vocab_size);
  EXPECT_FALSE(generate_matches(model_, generation));
  const CheckResult result = check_outputs(model_, {}, {generation});
  EXPECT_EQ(result.mismatched, std::vector<std::size_t>{9});
}

TEST(GreedyChoice, AcceptsTheMaximumAndNearTiesOnly) {
  voltage::Tensor logits(1, 4);
  logits(0, 0) = 0.5F;
  logits(0, 1) = 2.0F;
  logits(0, 2) = 2.0F;  // exact tie with column 1
  logits(0, 3) = 2.0F - 10 * kTieTolerance;
  EXPECT_TRUE(greedy_choice(logits, 1));
  EXPECT_TRUE(greedy_choice(logits, 2));
  EXPECT_FALSE(greedy_choice(logits, 3));
  EXPECT_FALSE(greedy_choice(logits, 0));
  EXPECT_FALSE(greedy_choice(logits, 4));   // out of range
  EXPECT_FALSE(greedy_choice(logits, -1));
}

TEST_F(OutputCheck, RejectsATruncatedGeneration) {
  GenerateSample generation{
      .index = 2,
      .prompt = prompt(12),
      .tokens = reference_generate(model_, prompt(12), 6),
      .new_tokens = 6};
  generation.tokens.pop_back();
  EXPECT_FALSE(generate_matches(model_, generation));
}

}  // namespace
}  // namespace perfbench
