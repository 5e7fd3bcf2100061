// Unit tests for the tensor substrate: shapes, kernels, FLOP accounting,
// RNG determinism and wire serialization.
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <numbers>
#include <tuple>

#include <gtest/gtest.h>

#include "tensor/flops.h"
#include "tensor/ops.h"
#include "tensor/rng.h"
#include "tensor/serialize.h"
#include "tensor/tensor.h"

namespace voltage {
namespace {

TEST(Tensor, DefaultConstructedIsEmpty) {
  const Tensor t;
  EXPECT_EQ(t.rows(), 0U);
  EXPECT_EQ(t.cols(), 0U);
  EXPECT_TRUE(t.empty());
}

TEST(Tensor, ZeroInitialized) {
  const Tensor t(3, 4);
  EXPECT_EQ(t.size(), 12U);
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 4; ++c) EXPECT_EQ(t(r, c), 0.0F);
  }
}

TEST(Tensor, InitializerListLayout) {
  const Tensor t{{1, 2, 3}, {4, 5, 6}};
  EXPECT_EQ(t.rows(), 2U);
  EXPECT_EQ(t.cols(), 3U);
  EXPECT_EQ(t(0, 2), 3.0F);
  EXPECT_EQ(t(1, 0), 4.0F);
}

TEST(Tensor, RaggedInitializerThrows) {
  EXPECT_THROW((Tensor{{1, 2}, {3}}), std::invalid_argument);
}

TEST(Tensor, SliceRows) {
  const Tensor t{{1, 2}, {3, 4}, {5, 6}};
  const Tensor mid = t.slice_rows(1, 3);
  EXPECT_EQ(mid.rows(), 2U);
  EXPECT_EQ(mid(0, 0), 3.0F);
  EXPECT_EQ(mid(1, 1), 6.0F);
  EXPECT_EQ(t.slice_rows(1, 1).rows(), 0U);
  EXPECT_THROW((void)t.slice_rows(2, 4), std::out_of_range);
}

TEST(Tensor, SliceCols) {
  const Tensor t{{1, 2, 3}, {4, 5, 6}};
  const Tensor right = t.slice_cols(1, 3);
  EXPECT_EQ(right.cols(), 2U);
  EXPECT_EQ(right(0, 0), 2.0F);
  EXPECT_EQ(right(1, 1), 6.0F);
}

TEST(Tensor, Transposed) {
  const Tensor t{{1, 2, 3}, {4, 5, 6}};
  const Tensor tt = t.transposed();
  EXPECT_EQ(tt.rows(), 3U);
  EXPECT_EQ(tt.cols(), 2U);
  EXPECT_EQ(tt(2, 1), 6.0F);
  EXPECT_EQ(tt.transposed(), t);
}

TEST(Tensor, SetRows) {
  Tensor t(4, 2);
  t.set_rows(1, Tensor{{7, 8}, {9, 10}});
  EXPECT_EQ(t(1, 0), 7.0F);
  EXPECT_EQ(t(2, 1), 10.0F);
  EXPECT_EQ(t(0, 0), 0.0F);
  EXPECT_THROW(t.set_rows(3, Tensor(2, 2)), std::out_of_range);
}

TEST(Tensor, Identity) {
  const Tensor id = Tensor::identity(3);
  EXPECT_EQ(id(0, 0), 1.0F);
  EXPECT_EQ(id(1, 2), 0.0F);
}

TEST(Tensor, MaxAbsDiffAndAllclose) {
  const Tensor a{{1, 2}, {3, 4}};
  Tensor b = a;
  b(1, 1) = 4.5F;
  EXPECT_FLOAT_EQ(max_abs_diff(a, b), 0.5F);
  EXPECT_TRUE(allclose(a, b, 0.5F));
  EXPECT_FALSE(allclose(a, b, 0.4F));
  EXPECT_THROW((void)max_abs_diff(a, Tensor(1, 2)), std::invalid_argument);
}

// --- matmul ---------------------------------------------------------------

TEST(Matmul, KnownValues) {
  const Tensor a{{1, 2}, {3, 4}};
  const Tensor b{{5, 6}, {7, 8}};
  const Tensor c = matmul(a, b);
  EXPECT_EQ(c, (Tensor{{19, 22}, {43, 50}}));
}

TEST(Matmul, IdentityIsNeutral) {
  Rng rng(1);
  const Tensor a = rng.normal_tensor(5, 5, 1.0F);
  EXPECT_TRUE(allclose(matmul(a, Tensor::identity(5)), a, 1e-6F));
  EXPECT_TRUE(allclose(matmul(Tensor::identity(5), a), a, 1e-6F));
}

TEST(Matmul, TransposeFlagsAgreeWithExplicitTranspose) {
  Rng rng(2);
  const Tensor a = rng.normal_tensor(4, 6, 1.0F);
  const Tensor b = rng.normal_tensor(4, 3, 1.0F);
  // a^T * b via flag vs via materialized transpose.
  EXPECT_TRUE(allclose(matmul(a, b, Trans::kYes, Trans::kNo),
                       matmul(a.transposed(), b), 1e-5F));
  const Tensor c = rng.normal_tensor(3, 6, 1.0F);
  EXPECT_TRUE(allclose(matmul(a, c, Trans::kNo, Trans::kYes),
                       matmul(a, c.transposed()), 1e-5F));
  EXPECT_TRUE(allclose(matmul(b, a, Trans::kYes, Trans::kNo),
                       matmul(b.transposed(), a), 1e-5F));
}

TEST(Matmul, ShapeMismatchThrows) {
  EXPECT_THROW((void)matmul(Tensor(2, 3), Tensor(4, 2)),
               std::invalid_argument);
}

TEST(Matmul, AssociativityHolds) {
  Rng rng(3);
  const Tensor a = rng.normal_tensor(3, 4, 1.0F);
  const Tensor b = rng.normal_tensor(4, 5, 1.0F);
  const Tensor c = rng.normal_tensor(5, 2, 1.0F);
  EXPECT_TRUE(
      allclose(matmul(matmul(a, b), c), matmul(a, matmul(b, c)), 1e-4F));
}

TEST(Matmul, EmptyRowsProduceEmptyResult) {
  const Tensor a(0, 4);
  const Tensor b(4, 5);
  const Tensor c = matmul(a, b);
  EXPECT_EQ(c.rows(), 0U);
  EXPECT_EQ(c.cols(), 5U);
}

// Parameterized MAC accounting across shapes: Γ(AB) = m * k * n exactly.
class MatmulFlops
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(MatmulFlops, CountsExactMacs) {
  const auto [m, k, n] = GetParam();
  Rng rng(7);
  const Tensor a = rng.normal_tensor(m, k, 1.0F);
  const Tensor b = rng.normal_tensor(k, n, 1.0F);
  const flops::Scope scope;
  (void)matmul(a, b);
  EXPECT_EQ(scope.macs(), static_cast<std::uint64_t>(m) * k * n);
}

INSTANTIATE_TEST_SUITE_P(Shapes, MatmulFlops,
                         ::testing::Values(std::tuple{1, 1, 1},
                                           std::tuple{2, 3, 4},
                                           std::tuple{16, 64, 16},
                                           std::tuple{100, 64, 100},
                                           std::tuple{33, 128, 7}));

// --- elementwise kernels ----------------------------------------------------

TEST(Ops, AddAndSub) {
  const Tensor a{{1, 2}, {3, 4}};
  const Tensor b{{10, 20}, {30, 40}};
  EXPECT_EQ(add(a, b), (Tensor{{11, 22}, {33, 44}}));
  EXPECT_EQ(sub(b, a), (Tensor{{9, 18}, {27, 36}}));
  Tensor c = a;
  add_inplace(c, b);
  EXPECT_EQ(c, add(a, b));
}

TEST(Ops, AddBias) {
  Tensor x{{1, 1, 1}, {2, 2, 2}};
  add_bias_inplace(x, Tensor{{1, 2, 3}});
  EXPECT_EQ(x, (Tensor{{2, 3, 4}, {3, 4, 5}}));
  EXPECT_THROW(add_bias_inplace(x, Tensor(1, 2)), std::invalid_argument);
}

TEST(Ops, SoftmaxRowsSumToOne) {
  Rng rng(4);
  const Tensor x = rng.normal_tensor(6, 10, 3.0F);
  const Tensor s = softmax_rows(x, 0.5F);
  for (std::size_t r = 0; r < s.rows(); ++r) {
    float sum = 0.0F;
    for (const float v : s.row(r)) {
      EXPECT_GE(v, 0.0F);
      sum += v;
    }
    EXPECT_NEAR(sum, 1.0F, 1e-5F);
  }
}

TEST(Ops, SoftmaxIsShiftInvariant) {
  const Tensor x{{1, 2, 3}};
  Tensor shifted = x;
  for (float& v : shifted.flat()) v += 100.0F;
  EXPECT_TRUE(allclose(softmax_rows(x), softmax_rows(shifted), 1e-5F));
}

TEST(Ops, SoftmaxHandlesLargeNegativeMask) {
  const Tensor x{{0.0F, -1e30F, 0.0F}};
  const Tensor s = softmax_rows(x, 0.125F);
  EXPECT_NEAR(s(0, 0), 0.5F, 1e-5F);
  EXPECT_EQ(s(0, 1), 0.0F);
  EXPECT_NEAR(s(0, 2), 0.5F, 1e-5F);
}

TEST(Ops, LayerNormZeroMeanUnitVar) {
  Rng rng(5);
  const Tensor x = rng.normal_tensor(4, 64, 2.0F);
  const Tensor gamma = Tensor::filled(1, 64, 1.0F);
  const Tensor beta = Tensor(1, 64);
  const Tensor y = layernorm_rows(x, gamma, beta);
  for (std::size_t r = 0; r < y.rows(); ++r) {
    float mean = 0.0F;
    float var = 0.0F;
    for (const float v : y.row(r)) mean += v;
    mean /= 64.0F;
    for (const float v : y.row(r)) var += (v - mean) * (v - mean);
    var /= 64.0F;
    EXPECT_NEAR(mean, 0.0F, 1e-4F);
    EXPECT_NEAR(var, 1.0F, 1e-2F);
  }
}

TEST(Ops, LayerNormAppliesGainAndBias) {
  const Tensor x{{1, 2, 3, 4}};
  const Tensor gamma = Tensor::filled(1, 4, 2.0F);
  const Tensor beta = Tensor::filled(1, 4, 10.0F);
  const Tensor y = layernorm_rows(x, gamma, beta);
  float mean = 0.0F;
  for (const float v : y.row(0)) mean += v;
  EXPECT_NEAR(mean / 4.0F, 10.0F, 1e-4F);
}

TEST(Ops, ReluClampsNegatives) {
  EXPECT_EQ(relu(Tensor{{-1, 0, 2}}), (Tensor{{0, 0, 2}}));
}

TEST(Ops, GeluMatchesReference) {
  // Reference values of tanh-approximation GELU.
  const Tensor y = gelu(Tensor{{0.0F, 1.0F, -1.0F, 3.0F}});
  EXPECT_NEAR(y(0, 0), 0.0F, 1e-6F);
  EXPECT_NEAR(y(0, 1), 0.8412F, 1e-3F);
  EXPECT_NEAR(y(0, 2), -0.1588F, 1e-3F);
  EXPECT_NEAR(y(0, 3), 2.9964F, 1e-3F);
}

TEST(Ops, GeluWithinOneMicroOfDoubleTanhForm) {
  // 400001 points on [-20, 20] against the tanh form in double precision.
  constexpr std::size_t kPoints = 400001;
  Tensor x(1, kPoints);
  for (std::size_t i = 0; i < kPoints; ++i) {
    x(0, i) = -20.0F + 40.0F * static_cast<float>(i) /
                           static_cast<float>(kPoints - 1);
  }
  const Tensor y = gelu(x);
  double worst = 0.0;
  for (std::size_t i = 0; i < kPoints; ++i) {
    const double v = x(0, i);
    const double u = std::sqrt(2.0 / std::numbers::pi) *
                     (v + 0.044715 * v * v * v);
    const double expected = 0.5 * v * (1.0 + std::tanh(u));
    worst = std::max(worst, std::abs(static_cast<double>(y(0, i)) - expected));
  }
  EXPECT_LE(worst, 1e-6);
  // Far tails: exactly the identity above, a signed zero below (v³
  // overflows, the exp saturates to +inf), NaN stays NaN.
  const Tensor t = gelu(Tensor{{-1e30F, 1e30F, std::nanf("")}});
  EXPECT_EQ(t(0, 0), 0.0F);
  EXPECT_EQ(t(0, 1), 1e30F);
  EXPECT_TRUE(std::isnan(t(0, 2)));
}

TEST(Ops, BiasGeluEqualsAddBiasThenGeluBitwise) {
  Rng rng(5);
  const Tensor x = rng.normal_tensor(7, 301, 3.0F);  // ragged: 301 = 256 + 45
  const Tensor bias = rng.normal_tensor(1, 301, 1.0F);
  Tensor separate = x;
  Tensor fused = x;
  std::uint64_t separate_ops = 0;
  std::uint64_t fused_ops = 0;
  {
    const flops::Scope scope;
    add_bias_inplace(separate, bias);
    separate = gelu(separate);
    separate_ops = scope.elementwise();
  }
  {
    const flops::Scope scope;
    bias_gelu_inplace(fused, bias);
    fused_ops = scope.elementwise();
  }
  ASSERT_TRUE(separate.same_shape(fused));
  EXPECT_EQ(std::memcmp(separate.data(), fused.data(),
                        fused.size() * sizeof(float)),
            0);
  EXPECT_EQ(fused_ops, separate_ops);
  Tensor bad = x;
  EXPECT_THROW(bias_gelu_inplace(bad, Tensor(1, 300)), std::invalid_argument);
}

TEST(Ops, SoftmaxMaskedEntriesAreExactlyZero) {
  const float inf = std::numeric_limits<float>::infinity();
  const Tensor p = softmax_rows(Tensor{{0.5F, -1e30F, 1.5F, -inf, -90.0F}});
  EXPECT_EQ(p(0, 1), 0.0F);
  EXPECT_EQ(p(0, 3), 0.0F);
  EXPECT_EQ(p(0, 4), 0.0F);
  EXPECT_NEAR(p(0, 0) + p(0, 2), 1.0F, 1e-6F);
  EXPECT_NEAR(p(0, 2) / p(0, 0), std::exp(1.0F), 1e-5F);
}

TEST(Ops, ConcatColsAndRows) {
  const Tensor a{{1, 2}, {3, 4}};
  const Tensor b{{5}, {6}};
  const std::vector<Tensor> cols{a, b};
  EXPECT_EQ(concat_cols(cols), (Tensor{{1, 2, 5}, {3, 4, 6}}));
  const Tensor c{{7, 8}};
  const std::vector<Tensor> rows{a, c};
  EXPECT_EQ(concat_rows(rows), (Tensor{{1, 2}, {3, 4}, {7, 8}}));
}

TEST(Ops, ConcatMismatchThrows) {
  const std::vector<Tensor> bad{Tensor(2, 2), Tensor(3, 2)};
  EXPECT_THROW((void)concat_cols(bad), std::invalid_argument);
}

TEST(Ops, MeanRowsAndArgmax) {
  const Tensor x{{1, 5, 3}, {3, 1, 5}};
  EXPECT_TRUE(allclose(mean_rows(x), Tensor{{2, 3, 4}}, 1e-6F));
  EXPECT_EQ(argmax_row(x, 0), 1U);
  EXPECT_EQ(argmax_row(x, 1), 2U);
}

// --- rng -------------------------------------------------------------------

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(99);
  Rng b(99);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, SeedsDiverge) {
  Rng a(1);
  Rng b(2);
  EXPECT_NE(a.next_u64(), b.next_u64());
}

TEST(Rng, UniformInRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const float u = rng.next_uniform();
    EXPECT_GE(u, 0.0F);
    EXPECT_LT(u, 1.0F);
  }
}

TEST(Rng, NormalMomentsRoughlyStandard) {
  Rng rng(4);
  double sum = 0.0;
  double sq = 0.0;
  constexpr int kSamples = 20000;
  for (int i = 0; i < kSamples; ++i) {
    const double v = rng.next_normal();
    sum += v;
    sq += v * v;
  }
  EXPECT_NEAR(sum / kSamples, 0.0, 0.05);
  EXPECT_NEAR(sq / kSamples, 1.0, 0.05);
}

TEST(Rng, NormalTensorUsesStddev) {
  Rng rng(5);
  const Tensor t = rng.normal_tensor(100, 100, 0.1F);
  double sq = 0.0;
  for (const float v : t.flat()) sq += static_cast<double>(v) * v;
  EXPECT_NEAR(std::sqrt(sq / static_cast<double>(t.size())), 0.1, 0.01);
}

// --- serialization -----------------------------------------------------------

TEST(Serialize, RoundTrip) {
  Rng rng(6);
  const Tensor t = rng.normal_tensor(7, 13, 1.0F);
  EXPECT_EQ(tensor_from_bytes(to_bytes(t)), t);
}

TEST(Serialize, EmptyTensorRoundTrip) {
  const Tensor t(0, 5);
  const Tensor back = tensor_from_bytes(to_bytes(t));
  EXPECT_EQ(back.rows(), 0U);
  EXPECT_EQ(back.cols(), 5U);
}

TEST(Serialize, WireSizeMatchesFormula) {
  const Tensor t(3, 4);
  EXPECT_EQ(to_bytes(t).size(), tensor_wire_bytes(12));
  EXPECT_EQ(tensor_wire_bytes(12), 16U + 48U);
}

TEST(Serialize, TruncatedPayloadThrows) {
  auto bytes = to_bytes(Tensor(2, 2));
  bytes.pop_back();
  EXPECT_THROW((void)tensor_from_bytes(bytes), std::invalid_argument);
  EXPECT_THROW((void)tensor_from_bytes(std::vector<std::byte>(8)),
               std::invalid_argument);
}

// Forge a wire header claiming the given shape over a body of `body_bytes`
// zero bytes.
std::vector<std::byte> forged_header(std::uint64_t rows, std::uint64_t cols,
                                     std::size_t body_bytes) {
  std::vector<std::byte> bytes(kTensorWireHeaderBytes + body_bytes);
  std::memcpy(bytes.data(), &rows, sizeof(rows));
  std::memcpy(bytes.data() + sizeof(rows), &cols, sizeof(cols));
  return bytes;
}

TEST(Serialize, HostileHeaderOverflowThrows) {
  // rows * cols wraps to 0 in 64 bits: 2^32 * 2^32. Without the overflow
  // guard the size check would accept a 16-byte payload for a "2^64
  // element" tensor and the copy would scribble far past the buffer.
  const std::uint64_t big = std::uint64_t{1} << 32;
  EXPECT_THROW((void)tensor_from_bytes(forged_header(big, big, 0)),
               std::invalid_argument);
  // rows * cols wraps to 16: (2^63 + 8) * 2 = 16 mod 2^64.
  EXPECT_THROW((void)tensor_from_bytes(forged_header(
                   (std::uint64_t{1} << 63) + 8, 2, 16 * sizeof(float))),
               std::invalid_argument);
  // Element count fits u64 but the byte size would overflow size_t.
  EXPECT_THROW((void)tensor_from_bytes(
                   forged_header(std::uint64_t{1} << 62, 8, 0)),
               std::invalid_argument);
  // Same guards on the payload path.
  EXPECT_THROW((void)tensor_from_payload(Payload(forged_header(big, big, 0))),
               std::invalid_argument);
}

TEST(Serialize, DeserializeIntoPlacesRowsAtOffset) {
  Rng rng(7);
  const Tensor part = rng.normal_tensor(3, 5, 1.0F);
  Tensor dst(8, 5);
  const WireShape shape = deserialize_into(Payload(to_bytes(part)), dst, 2);
  EXPECT_EQ(shape.rows, 3U);
  EXPECT_EQ(shape.cols, 5U);
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 5; ++c) {
      EXPECT_EQ(dst(r + 2, c), part(r, c));
    }
  }
  EXPECT_EQ(dst(0, 0), 0.0F);  // untouched outside the landed range
}

TEST(Serialize, DeserializeIntoValidates) {
  const Tensor part(3, 5);
  Tensor dst(8, 5);
  // Rows don't fit at the offset.
  EXPECT_THROW((void)deserialize_into(Payload(to_bytes(part)), dst, 6),
               std::invalid_argument);
  // Column mismatch.
  Tensor narrow(8, 4);
  EXPECT_THROW((void)deserialize_into(Payload(to_bytes(part)), narrow, 0),
               std::invalid_argument);
  // Hostile header can't bypass the range check either.
  EXPECT_THROW((void)deserialize_into(
                   Payload(forged_header(std::uint64_t{1} << 32,
                                         std::uint64_t{1} << 32, 0)),
                   dst, 0),
               std::invalid_argument);
  // Empty partitions land anywhere, even at the end.
  const WireShape shape =
      deserialize_into(Payload(to_bytes(Tensor(0, 7))), dst, 8);
  EXPECT_EQ(shape.rows, 0U);
}

TEST(Serialize, PayloadViewCarriesExactWireBytes) {
  // A borrowing payload must be byte-identical to the serialized form —
  // traffic accounting and socket framing depend on it.
  Rng rng(9);
  const auto t = std::make_shared<const Tensor>(rng.normal_tensor(4, 6, 1.0F));
  const Payload view = tensor_payload_view(t);
  EXPECT_EQ(view.size(), tensor_wire_bytes(t->size()));
  EXPECT_EQ(view.flatten(), to_bytes(*t));
  // The view keeps the tensor alive and reads back identically.
  EXPECT_EQ(tensor_from_payload(view), *t);
}

// --- flop counters -----------------------------------------------------------

TEST(Flops, ScopeResetsAndAccumulates) {
  Rng rng(8);
  const Tensor a = rng.normal_tensor(2, 3, 1.0F);
  const Tensor b = rng.normal_tensor(3, 4, 1.0F);
  {
    const flops::Scope scope;
    (void)matmul(a, b);
    (void)matmul(a, b);
    EXPECT_EQ(scope.macs(), 2U * 2 * 3 * 4);
  }
  const flops::Scope fresh;
  EXPECT_EQ(fresh.macs(), 0U);
}

TEST(Flops, ElementwiseAccountedByKernels) {
  Tensor x = Tensor::filled(4, 8, 1.0F);
  const flops::Scope scope;
  add_inplace(x, x);               // 32
  (void)softmax_rows(x);           // 4 * 32
  (void)relu(x);                   // 32
  EXPECT_EQ(scope.elementwise(), 32U + 128U + 32U);
}

}  // namespace
}  // namespace voltage
