// Baseline-ISA instantiation of the blocked GEMM (4x8 tile on x86-64 SSE2)
// and the exp kernel. The dispatcher in gemm.cpp falls back here when
// AVX2+FMA is unavailable.
#define VOLTAGE_GEMM_NAMESPACE base
#include "tensor/gemm_impl.inc"
#include "tensor/exp_impl.inc"
