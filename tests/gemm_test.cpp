// Bitwise contracts of the blocked GEMM substrate (src/tensor/gemm.h):
// every kernel variant must equal the naive i-j-k reference exactly, results
// must not change with the intra-op thread budget, transposed operands must
// never be materialized, and the distributed runtime must reproduce
// single-device inference bit for bit under the naive attention order. The
// exp kernel that shares the GEMM's ISA dispatch is held to its accuracy
// bound, its special values, position independence, and its own scalar
// reference on every ISA the host can run.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string_view>
#include <vector>

#include "core/thread_pool.h"
#include "runtime/voltage_runtime.h"
#include "tensor/flops.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"
#include "tensor/rng.h"
#include "transformer/tokenizer.h"
#include "transformer/zoo.h"

namespace voltage {
namespace {

void expect_bitwise(const Tensor& a, const Tensor& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  ASSERT_EQ(std::memcmp(a.data(), b.data(),
                        a.rows() * a.cols() * sizeof(float)),
            0);
}

struct Shape {
  std::size_t m, k, n;
};

// Mixes tile-aligned shapes with shapes that exercise every edge path:
// m/n/k not divisible by any micro-tile or cache-block size, degenerate
// single-row/column cases, and k spanning multiple KC blocks.
const std::vector<Shape>& test_shapes() {
  static const std::vector<Shape> shapes = {
      {1, 1, 1},     {2, 3, 4},      {5, 7, 9},      {8, 8, 8},
      {13, 1, 31},   {1, 257, 1},    {33, 17, 29},   {64, 64, 64},
      {65, 300, 33}, {100, 48, 129}, {128, 256, 96}, {141, 260, 70},
  };
  return shapes;
}

TEST(GemmKernels, MatchNaiveReferenceBitwiseForAllVariantsAndShapes) {
  Rng rng(42);
  for (const Shape& s : test_shapes()) {
    for (const bool ta : {false, true}) {
      for (const bool tb : {false, true}) {
        // Stored layouts: A is m x k (or k x m when transposed), likewise B.
        const Tensor a = ta ? rng.normal_tensor(s.k, s.m, 1.0F)
                            : rng.normal_tensor(s.m, s.k, 1.0F);
        const Tensor b = tb ? rng.normal_tensor(s.n, s.k, 1.0F)
                            : rng.normal_tensor(s.k, s.n, 1.0F);
        // Both sides accumulate onto the same nonzero C.
        const Tensor c0 = rng.normal_tensor(s.m, s.n, 1.0F);
        Tensor c_kernel = c0;
        Tensor c_ref = c0;
        detail::gemm_blocked(a.data(), ta, b.data(), tb, c_kernel.data(),
                             s.m, 0, s.m, s.k, s.n);
        detail::gemm_reference(a.data(), ta, b.data(), tb, c_ref.data(),
                               s.m, s.k, s.n);
        expect_bitwise(c_kernel, c_ref);
      }
    }
  }
}

TEST(GemmKernels, DedicatedEntryPointsMatchReference) {
  Rng rng(7);
  const std::size_t m = 37, k = 53, n = 29;
  const Tensor a = rng.normal_tensor(m, k, 1.0F);
  const Tensor at = rng.normal_tensor(k, m, 1.0F);
  const Tensor b = rng.normal_tensor(k, n, 1.0F);
  const Tensor bt = rng.normal_tensor(n, k, 1.0F);

  const auto check = [&](const Tensor& sa, bool ta, const Tensor& sb, bool tb,
                         auto kernel) {
    Tensor c_kernel(m, n);
    Tensor c_ref(m, n);
    kernel(sa.data(), sb.data(), c_kernel.data(), m, k, n);
    detail::gemm_reference(sa.data(), ta, sb.data(), tb, c_ref.data(), m, k,
                           n);
    expect_bitwise(c_kernel, c_ref);
  };
  check(a, false, b, false, detail::gemm_nn);
  check(a, false, bt, true, detail::gemm_nt);
  check(at, true, b, false, detail::gemm_tn);
  check(at, true, bt, true, detail::gemm_tt);
}

TEST(GemmKernels, RowRangeSplitsReproduceTheFullResult) {
  Rng rng(11);
  const std::size_t m = 67, k = 40, n = 51;
  const Tensor a = rng.normal_tensor(m, k, 1.0F);
  const Tensor b = rng.normal_tensor(k, n, 1.0F);
  Tensor full(m, n);
  detail::gemm_blocked(a.data(), false, b.data(), false, full.data(), m, 0, m,
                       k, n);

  // Uneven split points, including a single-row chunk.
  Tensor split(m, n);
  const std::size_t cuts[] = {0, 5, 6, 40, m};
  for (std::size_t c = 0; c + 1 < std::size(cuts); ++c) {
    detail::gemm_blocked(a.data(), false, b.data(), false, split.data(), m,
                         cuts[c], cuts[c + 1], k, n);
  }
  expect_bitwise(full, split);
}

TEST(GemmKernels, MatmulIsBitwiseIdenticalAcrossIntraOpBudgets) {
  Rng rng(13);
  for (const Shape& s : {Shape{37, 23, 41}, Shape{130, 64, 50}}) {
    const Tensor a = rng.normal_tensor(s.m, s.k, 1.0F);
    const Tensor b = rng.normal_tensor(s.k, s.n, 1.0F);
    std::vector<Tensor> results;
    for (const std::size_t threads : {1U, 2U, 4U}) {
      const IntraOpScope scope(threads);
      results.push_back(matmul(a, b));
    }
    expect_bitwise(results[0], results[1]);
    expect_bitwise(results[0], results[2]);
  }
}

TEST(GemmKernels, TransposedMatmulNeverMaterializesACopy) {
  Rng rng(17);
  const Tensor a = rng.normal_tensor(45, 33, 1.0F);
  const Tensor b = rng.normal_tensor(51, 33, 1.0F);     // op(b)^T is 33 x 51
  const Tensor at = rng.normal_tensor(33, 45, 1.0F);    // op(at)^T is 45 x 33
  const Tensor c = rng.normal_tensor(33, 20, 1.0F);
  const std::uint64_t before = Tensor::transpose_copy_count();
  (void)matmul(a, b, Trans::kNo, Trans::kYes);    // NT: 45x33 · 33x51
  (void)matmul(at, b, Trans::kYes, Trans::kYes);  // TT: 45x33 · 33x51
  (void)matmul(at, c, Trans::kYes, Trans::kNo);   // TN: 45x33 · 33x20
  EXPECT_EQ(Tensor::transpose_copy_count(), before);
  // The counter itself is live: an explicit transpose still registers.
  (void)a.transposed();
  EXPECT_EQ(Tensor::transpose_copy_count(), before + 1);
}

TEST(GemmKernels, MacAccountingIsExactUnderThreading) {
  Rng rng(19);
  const std::size_t m = 96, k = 64, n = 80;
  const Tensor a = rng.normal_tensor(m, k, 1.0F);
  const Tensor b = rng.normal_tensor(k, n, 1.0F);
  const IntraOpScope scope(4);
  const flops::Scope counter;
  (void)matmul(a, b);
  EXPECT_EQ(counter.macs(), static_cast<std::uint64_t>(m) * k * n);
}

TEST(GemmKernels, DispatchReportsAKnownArch) {
  const std::string_view arch = detail::gemm_kernel_arch();
  EXPECT_TRUE(arch == "avx512" || arch == "avx2" || arch == "base") << arch;
}

TEST(GemmKernels, EveryRunnableIsaMatchesItsOwnReference) {
  const auto isas = detail::runnable_dispatches();
  ASSERT_FALSE(isas.empty());
  EXPECT_STREQ(isas.front().arch, detail::gemm_kernel_arch());
  EXPECT_STREQ(isas.back().arch, "base");
  Rng rng(29);
  for (const detail::Dispatch& isa : isas) {
    for (const Shape& s : test_shapes()) {
      const Tensor a = rng.normal_tensor(s.m, s.k, 1.0F);
      const Tensor bt = rng.normal_tensor(s.n, s.k, 1.0F);
      const Tensor c0 = rng.normal_tensor(s.m, s.n, 1.0F);
      Tensor c_kernel = c0;
      Tensor c_ref = c0;
      isa.blocked(a.data(), false, bt.data(), true, c_kernel.data(), s.m, 0,
                  s.m, s.k, s.n);
      isa.reference(a.data(), false, bt.data(), true, c_ref.data(), s.m, s.k,
                    s.n);
      SCOPED_TRACE(isa.arch);
      expect_bitwise(c_kernel, c_ref);
    }
  }
}

// --- exp kernel -------------------------------------------------------------

constexpr float kInf = std::numeric_limits<float>::infinity();

// Inputs covering [-87.3, 88.7]: an even grid of 2^21 points plus every
// 4099th float bit pattern (dense near zero, where the grid is coarse).
std::vector<float> exp_sweep() {
  std::vector<float> xs;
  constexpr float kLo = -87.3F;
  constexpr float kHi = 88.7F;
  constexpr std::size_t kGrid = std::size_t{1} << 21;
  for (std::size_t i = 0; i <= kGrid; ++i) {
    xs.push_back(kLo + (kHi - kLo) * static_cast<float>(i) /
                           static_cast<float>(kGrid));
  }
  for (std::uint32_t b = 0; b <= std::bit_cast<std::uint32_t>(kHi);
       b += 4099) {
    xs.push_back(std::bit_cast<float>(b));
  }
  for (std::uint32_t b = std::bit_cast<std::uint32_t>(-0.0F);
       b <= std::bit_cast<std::uint32_t>(kLo); b += 4099) {
    xs.push_back(std::bit_cast<float>(b));
  }
  return xs;
}

// Distance in units in the last place between two finite positive floats.
std::uint32_t ulp_distance(float a, float b) {
  const auto ua = std::bit_cast<std::uint32_t>(a);
  const auto ub = std::bit_cast<std::uint32_t>(b);
  return ua > ub ? ua - ub : ub - ua;
}

TEST(ExpKernel, EveryIsaWithinTwoUlpOfCorrectlyRoundedExp) {
  const std::vector<float> xs = exp_sweep();
  std::vector<float> ys(xs.size());
  for (const detail::Dispatch& isa : detail::runnable_dispatches()) {
    isa.exp(xs.data(), ys.data(), xs.size());
    std::uint32_t worst = 0;
    float worst_x = 0.0F;
    for (std::size_t i = 0; i < xs.size(); ++i) {
      const auto expected =
          static_cast<float>(std::exp(static_cast<double>(xs[i])));
      const std::uint32_t d = ulp_distance(ys[i], expected);
      if (d > worst) {
        worst = d;
        worst_x = xs[i];
      }
    }
    EXPECT_LE(worst, 2U) << isa.arch << " worst at x = " << worst_x;
  }
}

TEST(ExpKernel, SpecialValues) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const std::vector<float> xs = {-kInf, -1e30F, -88.0F, -87.34F, 0.0F, -0.0F,
                                 89.0F, 88.73F, kInf,   nan};
  std::vector<float> ys(xs.size());
  for (const detail::Dispatch& isa : detail::runnable_dispatches()) {
    SCOPED_TRACE(isa.arch);
    isa.exp(xs.data(), ys.data(), xs.size());
    for (std::size_t i = 0; i < 4; ++i) {
      // Exactly +0, not a subnormal and not -0.
      EXPECT_EQ(std::bit_cast<std::uint32_t>(ys[i]), 0U) << "x = " << xs[i];
    }
    EXPECT_EQ(ys[4], 1.0F);
    EXPECT_EQ(ys[5], 1.0F);
    EXPECT_EQ(ys[6], kInf);
    EXPECT_EQ(ys[7], kInf);
    EXPECT_EQ(ys[8], kInf);
    EXPECT_TRUE(std::isnan(ys[9]));
  }
}

TEST(ExpKernel, ResultIndependentOfPositionAndSpanLength) {
  // Random scores plus the masked and special values attention produces.
  Rng rng(31);
  const Tensor scores = rng.normal_tensor(1, 96, 30.0F);
  std::vector<float> xs(scores.flat().begin(), scores.flat().end());
  xs[3] = -1e30F;
  xs[17] = -kInf;
  xs[40] = std::numeric_limits<float>::quiet_NaN();
  xs[41] = 100.0F;
  for (const detail::Dispatch& isa : detail::runnable_dispatches()) {
    SCOPED_TRACE(isa.arch);
    std::vector<float> alone(xs.size());
    for (std::size_t i = 0; i < xs.size(); ++i) {
      isa.exp(&xs[i], &alone[i], 1);
    }
    std::vector<float> out(xs.size());
    for (std::size_t offset = 0; offset + 67 <= xs.size(); ++offset) {
      for (std::size_t n = 1; n <= 67; ++n) {
        isa.exp(xs.data() + offset, out.data(), n);
        ASSERT_EQ(std::memcmp(out.data(), alone.data() + offset,
                              n * sizeof(float)),
                  0)
            << "offset " << offset << " length " << n;
      }
    }
    // In place (y aliases x) gives the same bits.
    std::vector<float> inplace = xs;
    isa.exp(inplace.data(), inplace.data(), inplace.size());
    EXPECT_EQ(std::memcmp(inplace.data(), alone.data(),
                          xs.size() * sizeof(float)),
              0);
  }
}

TEST(ExpKernel, EveryIsaMatchesItsOwnScalarReferenceBitwise) {
  std::vector<float> xs = exp_sweep();
  for (const float special :
       {-kInf, -1e30F, -88.0F, -87.3365F, 88.72F, 88.73F, 89.0F, 1e30F, kInf,
        std::numeric_limits<float>::quiet_NaN()}) {
    xs.push_back(special);
  }
  std::vector<float> kernel(xs.size());
  std::vector<float> reference(xs.size());
  for (const detail::Dispatch& isa : detail::runnable_dispatches()) {
    isa.exp(xs.data(), kernel.data(), xs.size());
    isa.exp_reference(xs.data(), reference.data(), xs.size());
    EXPECT_EQ(std::memcmp(kernel.data(), reference.data(),
                          xs.size() * sizeof(float)),
              0)
        << isa.arch;
  }
}

TEST(GemmDeterminism, ModelForwardBitwiseIdenticalAcrossIntraOpBudgets) {
  for (const ModelSpec& spec : {mini_bert_spec(), mini_gpt2_spec()}) {
    const TransformerModel model = make_model(spec);
    const auto tokens = random_tokens(24, model.spec().vocab_size, 7);
    std::vector<Tensor> logits;
    for (const std::size_t threads : {1U, 2U, 4U}) {
      const IntraOpScope scope(threads);
      logits.push_back(model.infer(tokens));
    }
    expect_bitwise(logits[0], logits[1]);
    expect_bitwise(logits[0], logits[2]);
  }
}

// Stronger than the runtime_test tolerance checks: under the naive attention
// order the distributed computation performs exactly the same per-row FP
// chains as the single-device baseline, so K devices must reproduce it bit
// for bit (row-splitting a GEMM never changes any row's summation order).
TEST(GemmDeterminism, DistributedInferenceBitwiseMatchesSingleDevice) {
  const TransformerModel model = make_model(mini_bert_spec());
  const auto tokens = random_tokens(30, model.spec().vocab_size, 23);
  const Tensor expected = model.infer(tokens);
  for (const std::size_t k : {2U, 3U}) {
    VoltageRuntime runtime(model, PartitionScheme::even(k),
                           OrderPolicy::kAlwaysNaive);
    const Tensor logits = runtime.infer(tokens);
    expect_bitwise(logits, expected);
  }
}

}  // namespace
}  // namespace voltage
