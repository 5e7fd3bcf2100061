// AVX-512 instantiation of the blocked GEMM and the exp kernel. This TU is
// compiled with -mavx512f -mfma (see CMakeLists.txt) so the 8x32
// micro-kernel uses zmm fused multiply-adds; the dispatcher in gemm.cpp
// selects it at runtime via __builtin_cpu_supports, so the binary stays
// safe on narrower x86-64. Non-x86 builds compile this TU empty and never
// reference the namespace.
#if defined(__x86_64__) || defined(_M_X64)
#define VOLTAGE_GEMM_NAMESPACE avx512
#include "tensor/gemm_impl.inc"
#include "tensor/exp_impl.inc"
#endif
