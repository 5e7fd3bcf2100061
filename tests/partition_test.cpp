// Tests of the position-wise partition machinery: partition schemes,
// partitioned attention (both computation orders), Algorithm 1, and the
// central correctness invariant — partitions reassemble to exactly the
// full-sequence result.
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "partition/partitioned_attention.h"
#include "partition/partitioned_layer.h"
#include "partition/scheme.h"
#include "tensor/ops.h"
#include "tensor/rng.h"
#include "transformer/attention.h"
#include "transformer/layer.h"
#include "transformer/weights.h"

namespace voltage {
namespace {

LayerConfig test_config(bool causal = false) {
  return LayerConfig{.hidden = 32,
                     .heads = 4,
                     .head_dim = 8,
                     .ffn_dim = 64,
                     .activation = Activation::kGelu,
                     .causal = causal};
}

// --- PartitionScheme ---------------------------------------------------------

TEST(PartitionScheme, EvenSplit) {
  const PartitionScheme scheme = PartitionScheme::even(4);
  const auto ranges = scheme.ranges(100);
  ASSERT_EQ(ranges.size(), 4U);
  for (const Range& r : ranges) EXPECT_EQ(r.size(), 25U);
  EXPECT_EQ(ranges.front().begin, 0U);
  EXPECT_EQ(ranges.back().end, 100U);
}

TEST(PartitionScheme, RejectsInvalidRatios) {
  EXPECT_THROW(PartitionScheme({0.5, 0.6}), std::invalid_argument);
  EXPECT_THROW(PartitionScheme({0.5, -0.1, 0.6}), std::invalid_argument);
  EXPECT_THROW(PartitionScheme({}), std::invalid_argument);
  EXPECT_THROW(PartitionScheme({1.5, -0.5}), std::invalid_argument);
  EXPECT_NO_THROW(PartitionScheme({0.3, 0.7}));
}

TEST(PartitionScheme, ZeroRatioDeviceGetsEmptyRange) {
  const PartitionScheme scheme({0.5, 0.0, 0.5});
  const auto ranges = scheme.ranges(10);
  EXPECT_EQ(ranges[0].size(), 5U);
  EXPECT_TRUE(ranges[1].empty());
  EXPECT_EQ(ranges[2].size(), 5U);
}

TEST(PartitionScheme, ProportionalWeights) {
  const PartitionScheme scheme = PartitionScheme::proportional({1.0, 3.0});
  const auto ranges = scheme.ranges(100);
  EXPECT_EQ(ranges[0].size(), 25U);
  EXPECT_EQ(ranges[1].size(), 75U);
  EXPECT_THROW(PartitionScheme::proportional({0.0, 0.0}),
               std::invalid_argument);
  EXPECT_THROW(PartitionScheme::proportional({1.0, -1.0}),
               std::invalid_argument);
}

TEST(PartitionScheme, ParseWeightLists) {
  const PartitionScheme scheme = PartitionScheme::parse("4,2,1,1");
  ASSERT_EQ(scheme.devices(), 4U);
  EXPECT_NEAR(scheme.ratios()[0], 0.5, 1e-9);
  EXPECT_NEAR(scheme.ratios()[3], 0.125, 1e-9);
  // Fractional weights and a single device work too.
  EXPECT_EQ(PartitionScheme::parse("0.25,0.75").devices(), 2U);
  EXPECT_EQ(PartitionScheme::parse("7").devices(), 1U);
}

TEST(PartitionScheme, ParseRejectsGarbage) {
  EXPECT_THROW((void)PartitionScheme::parse(""), std::invalid_argument);
  EXPECT_THROW((void)PartitionScheme::parse("1,,2"), std::invalid_argument);
  EXPECT_THROW((void)PartitionScheme::parse("1,abc"), std::invalid_argument);
  EXPECT_THROW((void)PartitionScheme::parse("1,2,"), std::invalid_argument);
  EXPECT_THROW((void)PartitionScheme::parse("-1,2"), std::invalid_argument);
}

TEST(PartitionScheme, OutOfRangeDeviceThrows) {
  const PartitionScheme scheme = PartitionScheme::even(2);
  EXPECT_THROW((void)scheme.range_for(2, 10), std::out_of_range);
}

// Property: for any K and N the ranges are sorted, disjoint and cover
// [0, N) exactly — the paper's §V-B bijectivity conditions.
class SchemeCover
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(SchemeCover, DisjointCompleteCover) {
  const auto [k, n] = GetParam();
  const PartitionScheme scheme = PartitionScheme::even(k);
  const auto ranges = scheme.ranges(n);
  std::size_t expected_begin = 0;
  for (const Range& r : ranges) {
    EXPECT_EQ(r.begin, expected_begin);
    EXPECT_LE(r.begin, r.end);
    expected_begin = r.end;
  }
  EXPECT_EQ(expected_begin, n);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SchemeCover,
    ::testing::Combine(::testing::Values<std::size_t>(1, 2, 3, 5, 6, 7, 10),
                       ::testing::Values<std::size_t>(1, 7, 100, 197, 200,
                                                      256, 300)));

TEST(PartitionScheme, SkewedRatiosStillCover) {
  const PartitionScheme scheme({0.123, 0.456, 0.421});
  for (const std::size_t n : {1U, 13U, 100U, 999U}) {
    const auto ranges = scheme.ranges(n);
    std::size_t begin = 0;
    for (const Range& r : ranges) {
      EXPECT_EQ(r.begin, begin);
      begin = r.end;
    }
    EXPECT_EQ(begin, n);
  }
}

// --- partitioned attention: numerical equivalence ---------------------------

// For every partition, both computation orders must reproduce the matching
// rows of the full-sequence attention output. This is the algebraic claim
// behind Eq. (3) == Eq. (8).
class PartitionEquivalence
    : public ::testing::TestWithParam<std::tuple<bool, AttentionOrder>> {};

TEST_P(PartitionEquivalence, HeadPartitionMatchesFullRows) {
  const auto [causal, order] = GetParam();
  Rng rng(21);
  const LayerConfig cfg = test_config(causal);
  const LayerWeights w = init_layer_weights(cfg, rng);
  const std::size_t n = 17;
  const Tensor x = rng.normal_tensor(n, cfg.hidden, 1.0F);
  const HeadWeights& head = w.attention.heads[1];

  const Tensor full = attention_head_full(x, head, cfg.head_dim, causal);
  for (const Range p :
       {Range{0, 5}, Range{5, 11}, Range{11, 17}, Range{0, 17}, Range{16, 17}}) {
    const Tensor part =
        attention_head_partition(x, p, head, cfg.head_dim, causal, order);
    ASSERT_EQ(part.rows(), p.size());
    EXPECT_TRUE(allclose(part, full.slice_rows(p.begin, p.end), 2e-4F))
        << "range [" << p.begin << "," << p.end << ") order "
        << to_string(order);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Orders, PartitionEquivalence,
    ::testing::Combine(::testing::Bool(),
                       ::testing::Values(AttentionOrder::kNaive,
                                         AttentionOrder::kReordered)));

TEST(PartitionedAttention, NaiveAndReorderedAgree) {
  Rng rng(22);
  const LayerConfig cfg = test_config();
  const LayerWeights w = init_layer_weights(cfg, rng);
  const Tensor x = rng.normal_tensor(20, cfg.hidden, 1.0F);
  const Range p{3, 9};
  const Tensor a = multi_head_attention_partition(x, p, w.attention, cfg,
                                                  OrderPolicy::kAlwaysNaive);
  const Tensor b = multi_head_attention_partition(
      x, p, w.attention, cfg, OrderPolicy::kAlwaysReordered);
  EXPECT_TRUE(allclose(a, b, 2e-4F));
}

TEST(PartitionedAttention, MatchesFullMultiHeadRows) {
  Rng rng(23);
  const LayerConfig cfg = test_config();
  const LayerWeights w = init_layer_weights(cfg, rng);
  const Tensor x = rng.normal_tensor(15, cfg.hidden, 1.0F);
  const Tensor full = multi_head_attention(x, w.attention, cfg);
  for (const OrderPolicy policy :
       {OrderPolicy::kAdaptive, OrderPolicy::kAlwaysNaive,
        OrderPolicy::kAlwaysReordered}) {
    const Range p{4, 10};
    const Tensor part =
        multi_head_attention_partition(x, p, w.attention, cfg, policy);
    EXPECT_TRUE(allclose(part, full.slice_rows(p.begin, p.end), 2e-4F));
  }
}

TEST(PartitionedAttention, EmptyRangeYieldsEmptyOutput) {
  Rng rng(24);
  const LayerConfig cfg = test_config();
  const LayerWeights w = init_layer_weights(cfg, rng);
  const Tensor x = rng.normal_tensor(8, cfg.hidden, 1.0F);
  const Tensor out = multi_head_attention_partition(
      x, Range{3, 3}, w.attention, cfg, OrderPolicy::kAdaptive);
  EXPECT_EQ(out.rows(), 0U);
  EXPECT_EQ(out.cols(), cfg.hidden);
}

TEST(PartitionedAttention, RangeBeyondInputThrows) {
  Rng rng(25);
  const LayerConfig cfg = test_config();
  const LayerWeights w = init_layer_weights(cfg, rng);
  const Tensor x = rng.normal_tensor(8, cfg.hidden, 1.0F);
  EXPECT_THROW(
      (void)attention_head_partition(x, Range{5, 9}, w.attention.heads[0],
                                     cfg.head_dim, false,
                                     AttentionOrder::kNaive),
      std::out_of_range);
}

TEST(PartitionedAttention, CausalPartitionUsesGlobalPositions) {
  // The mask inside a partition must offset by the partition start: the
  // partition rows of a causal model must match the full causal output.
  Rng rng(26);
  const LayerConfig cfg = test_config(/*causal=*/true);
  const LayerWeights w = init_layer_weights(cfg, rng);
  const Tensor x = rng.normal_tensor(12, cfg.hidden, 1.0F);
  const Tensor full = multi_head_attention(x, w.attention, cfg);
  const Range p{6, 12};
  for (const OrderPolicy policy :
       {OrderPolicy::kAlwaysNaive, OrderPolicy::kAlwaysReordered}) {
    const Tensor part =
        multi_head_attention_partition(x, p, w.attention, cfg, policy);
    EXPECT_TRUE(allclose(part, full.slice_rows(6, 12), 2e-4F));
  }
}

// --- Algorithm 1: partitioned transformer layer ------------------------------

class PartitionedLayer : public ::testing::TestWithParam<OrderPolicy> {};

TEST_P(PartitionedLayer, MatchesFullLayerRows) {
  Rng rng(27);
  const LayerConfig cfg = test_config();
  const TransformerLayer layer(cfg, init_layer_weights(cfg, rng));
  const std::size_t n = 19;
  const Tensor x = rng.normal_tensor(n, cfg.hidden, 1.0F);
  const Tensor full = layer.forward(x);
  for (const Range p : {Range{0, 7}, Range{7, 13}, Range{13, 19}}) {
    const Tensor part = partitioned_layer_forward(layer, x, p, GetParam());
    EXPECT_TRUE(allclose(part, full.slice_rows(p.begin, p.end), 5e-4F));
  }
}

TEST_P(PartitionedLayer, PrologueResumeIsBitwiseIdentical) {
  // The runtimes compute the next layer's attention prologue while its
  // input is still being gathered and resume from it: the output must be
  // bit for bit the output without one, for any range, empty and edge
  // ranges included, with and without a causal mask.
  for (const bool causal : {false, true}) {
    Rng rng(26);
    const LayerConfig cfg = test_config(causal);
    const TransformerLayer layer(cfg, init_layer_weights(cfg, rng));
    const std::size_t n = 19;
    const Tensor x = rng.normal_tensor(n, cfg.hidden, 1.0F);
    for (const Range p : {Range{0, 0}, Range{0, 1}, Range{0, 7},
                          Range{7, 13}, Range{18, 19}, Range{19, 19},
                          Range{0, 19}}) {
      const AttentionPrologue prologue =
          attention_prologue(x.slice_rows(p.begin, p.end), n, p,
                             layer.weights().attention, cfg, GetParam());
      const Tensor plain = partitioned_layer_forward(layer, x, p, GetParam());
      const Tensor resumed =
          partitioned_layer_forward(layer, x, p, GetParam(), &prologue);
      ASSERT_EQ(resumed.rows(), p.size());
      ASSERT_EQ(resumed.cols(), plain.cols());
      for (std::size_t i = 0; i < plain.size(); ++i) {
        ASSERT_EQ(resumed.flat()[i], plain.flat()[i])
            << "causal=" << causal << " range [" << p.begin << ", " << p.end
            << ") element " << i;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Policies, PartitionedLayer,
                         ::testing::Values(OrderPolicy::kAdaptive,
                                           OrderPolicy::kAlwaysNaive,
                                           OrderPolicy::kAlwaysReordered));

TEST(PartitionedLayerAssembly, SchemePartitionsReassembleExactly) {
  // Distributing a layer with any partition scheme and reassembling the
  // partitions equals the full forward — the invariant Algorithm 2 rests on.
  Rng rng(28);
  const LayerConfig cfg = test_config();
  const TransformerLayer layer(cfg, init_layer_weights(cfg, rng));
  const std::size_t n = 23;
  const Tensor x = rng.normal_tensor(n, cfg.hidden, 1.0F);
  const Tensor full = layer.forward(x);

  for (const std::size_t k : {1U, 2U, 3U, 5U}) {
    const PartitionScheme scheme = PartitionScheme::even(k);
    Tensor assembled(n, cfg.hidden);
    for (std::size_t i = 0; i < k; ++i) {
      const Range r = scheme.range_for(i, n);
      assembled.set_rows(
          r.begin, partitioned_layer_forward(layer, x, r,
                                             OrderPolicy::kAdaptive));
    }
    EXPECT_TRUE(allclose(assembled, full, 5e-4F)) << "k=" << k;
  }
}

TEST(PartitionedLayerAssembly, CausalLayerReassembles) {
  Rng rng(29);
  const LayerConfig cfg = test_config(/*causal=*/true);
  const TransformerLayer layer(cfg, init_layer_weights(cfg, rng));
  const std::size_t n = 16;
  const Tensor x = rng.normal_tensor(n, cfg.hidden, 1.0F);
  const Tensor full = layer.forward(x);
  const PartitionScheme scheme = PartitionScheme::even(4);
  Tensor assembled(n, cfg.hidden);
  for (std::size_t i = 0; i < 4; ++i) {
    const Range r = scheme.range_for(i, n);
    assembled.set_rows(r.begin, partitioned_layer_forward(layer, x, r));
  }
  EXPECT_TRUE(allclose(assembled, full, 5e-4F));
}

TEST(PartitionedLayerAssembly, HeterogeneousSchemeReassembles) {
  Rng rng(30);
  const LayerConfig cfg = test_config();
  const TransformerLayer layer(cfg, init_layer_weights(cfg, rng));
  const std::size_t n = 21;
  const Tensor x = rng.normal_tensor(n, cfg.hidden, 1.0F);
  const Tensor full = layer.forward(x);
  const PartitionScheme scheme({0.6, 0.0, 0.1, 0.3});
  Tensor assembled(n, cfg.hidden);
  for (std::size_t i = 0; i < scheme.devices(); ++i) {
    const Range r = scheme.range_for(i, n);
    if (r.empty()) continue;
    assembled.set_rows(r.begin, partitioned_layer_forward(layer, x, r));
  }
  EXPECT_TRUE(allclose(assembled, full, 5e-4F));
}

TEST(PartitionedLayerStack, MultiLayerDistributedMatchesSequential) {
  // Simulate Algorithm 2's layer loop in-process: partition, assemble,
  // repeat — must equal sequential full forwards.
  Rng rng(31);
  const LayerConfig cfg = test_config();
  std::vector<TransformerLayer> layers;
  for (int l = 0; l < 3; ++l) {
    layers.emplace_back(cfg, init_layer_weights(cfg, rng));
  }
  const std::size_t n = 18;
  Tensor x_full = rng.normal_tensor(n, cfg.hidden, 1.0F);
  Tensor x_dist = x_full;
  const PartitionScheme scheme = PartitionScheme::even(3);
  for (const TransformerLayer& layer : layers) {
    x_full = layer.forward(x_full);
    Tensor next(n, cfg.hidden);
    for (std::size_t i = 0; i < 3; ++i) {
      const Range r = scheme.range_for(i, n);
      next.set_rows(r.begin, partitioned_layer_forward(layer, x_dist, r));
    }
    x_dist = next;
  }
  EXPECT_TRUE(allclose(x_dist, x_full, 2e-3F));
}

}  // namespace
}  // namespace voltage
