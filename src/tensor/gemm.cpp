// Runtime ISA dispatch for the blocked GEMM and the exp kernel. The kernels
// and their references always come from the same translation unit, so the
// compiler's FP-contraction choice (mul+add on baseline, fused FMA under
// -mfma) applies to both identically and the bitwise contracts in gemm.h
// hold on every ISA.
#include "tensor/gemm.h"

#include <array>

namespace voltage::detail {

#define VOLTAGE_DECLARE_ISA_KERNELS                                          \
  void gemm_blocked(const float* a, bool trans_a, const float* b,            \
                    bool trans_b, float* c, std::size_t m, std::size_t i0,   \
                    std::size_t i1, std::size_t k, std::size_t n);           \
  void gemm_reference(const float* a, bool trans_a, const float* b,          \
                      bool trans_b, float* c, std::size_t m, std::size_t k,  \
                      std::size_t n);                                        \
  void exp_span(const float* x, float* y, std::size_t n);                    \
  void exp_span_reference(const float* x, float* y, std::size_t n);

namespace base {
VOLTAGE_DECLARE_ISA_KERNELS
}  // namespace base

#if defined(__x86_64__) || defined(_M_X64)
namespace avx2 {
VOLTAGE_DECLARE_ISA_KERNELS
}  // namespace avx2
namespace avx512 {
VOLTAGE_DECLARE_ISA_KERNELS
}  // namespace avx512
#endif

#undef VOLTAGE_DECLARE_ISA_KERNELS

namespace {

struct Runnable {
  std::array<Dispatch, 3> table{};
  std::size_t count = 0;
};

Runnable pick() noexcept {
  Runnable r;
#if defined(__x86_64__) || defined(_M_X64)
  if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("fma")) {
    r.table[r.count++] = {&avx512::gemm_blocked, &avx512::gemm_reference,
                          &avx512::exp_span, &avx512::exp_span_reference,
                          "avx512"};
  }
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    r.table[r.count++] = {&avx2::gemm_blocked, &avx2::gemm_reference,
                          &avx2::exp_span, &avx2::exp_span_reference, "avx2"};
  }
#endif
  r.table[r.count++] = {&base::gemm_blocked, &base::gemm_reference,
                        &base::exp_span, &base::exp_span_reference, "base"};
  return r;
}

const Runnable& runnable() noexcept {
  static const Runnable r = pick();
  return r;
}

const Dispatch& dispatch() noexcept { return runnable().table[0]; }

}  // namespace

std::span<const Dispatch> runnable_dispatches() noexcept {
  const Runnable& r = runnable();
  return {r.table.data(), r.count};
}

void gemm_blocked(const float* a, bool trans_a, const float* b, bool trans_b,
                  float* c, std::size_t m, std::size_t i0, std::size_t i1,
                  std::size_t k, std::size_t n) {
  dispatch().blocked(a, trans_a, b, trans_b, c, m, i0, i1, k, n);
}

void gemm_nn(const float* a, const float* b, float* c, std::size_t m,
             std::size_t k, std::size_t n) {
  gemm_blocked(a, false, b, false, c, m, 0, m, k, n);
}

void gemm_nt(const float* a, const float* b, float* c, std::size_t m,
             std::size_t k, std::size_t n) {
  gemm_blocked(a, false, b, true, c, m, 0, m, k, n);
}

void gemm_tn(const float* a, const float* b, float* c, std::size_t m,
             std::size_t k, std::size_t n) {
  gemm_blocked(a, true, b, false, c, m, 0, m, k, n);
}

void gemm_tt(const float* a, const float* b, float* c, std::size_t m,
             std::size_t k, std::size_t n) {
  gemm_blocked(a, true, b, true, c, m, 0, m, k, n);
}

void gemm_reference(const float* a, bool trans_a, const float* b, bool trans_b,
                    float* c, std::size_t m, std::size_t k, std::size_t n) {
  dispatch().reference(a, trans_a, b, trans_b, c, m, k, n);
}

void exp_span(const float* x, float* y, std::size_t n) {
  dispatch().exp(x, y, n);
}

const char* gemm_kernel_arch() noexcept { return dispatch().arch; }

}  // namespace voltage::detail
