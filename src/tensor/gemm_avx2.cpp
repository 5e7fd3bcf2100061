// AVX2+FMA instantiation of the blocked GEMM and the exp kernel. This TU is
// compiled with -mavx2 -mfma (see CMakeLists.txt) so the 6x16 micro-kernel
// vectorizes to fused multiply-adds; the dispatcher in gemm.cpp selects it
// at runtime via __builtin_cpu_supports, so the binary stays safe on older
// x86-64. Non-x86 builds compile this TU empty and never reference the
// namespace.
#if defined(__x86_64__) || defined(_M_X64)
#define VOLTAGE_GEMM_NAMESPACE avx2
#include "tensor/gemm_impl.inc"
#include "tensor/exp_impl.inc"
#endif
