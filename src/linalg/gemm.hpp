#pragma once
// Single-precision GEMM kernels: the one hot path shared by Linear, Conv2d
// (implicit-GEMM convolution), Tensor::matmul, and the analysis stack.
//
// All matrices are packed row-major (leading dimension == stored column
// count). The four variants name the storage of A and B before the implied
// transposition:
//
//   gemm_nn: C(m,n) = A(m,k)   * B(k,n)
//   gemm_nt: C(m,n) = A(m,k)   * B(n,k)^T
//   gemm_tn: C(m,n) = A(k,m)^T * B(k,n)
//   gemm_tt: C(m,n) = A(k,m)^T * B(n,k)^T
//
// Dense operands run through one packed, register-tiled micro-kernel
// (linalg/microkernel.hpp): operands are gathered into zero-padded panels —
// the packing step is where any transposition is paid, so all four variants
// sustain the same dense throughput — and an 8x8 accumulator block lives in
// registers across the whole k panel. The kernels split disjoint row blocks
// of C into stealable tasks on the current work-stealing scheduler when the
// FLOP count amortizes the fork/join cost; nested under an outer batch
// loop, those blocks backfill idle workers instead of running inline.
//
// Masked-ticket workloads dominate this codebase, so nn/tn calls sample
// their A operand and switch to a zero-skipping axpy core past the crossover
// where skipping zero multipliers element-wise beats the packed kernel's
// higher dense throughput.

#include <cstdint>

namespace rt {

struct GemmOpts {
  bool accumulate = false;  ///< C += product instead of C = product.
  bool parallel = true;     ///< Allow splitting C rows across the Scheduler.
};

void gemm_nn(std::int64_t m, std::int64_t n, std::int64_t k, const float* a,
             const float* b, float* c, const GemmOpts& opts = {});
void gemm_nt(std::int64_t m, std::int64_t n, std::int64_t k, const float* a,
             const float* b, float* c, const GemmOpts& opts = {});
void gemm_tn(std::int64_t m, std::int64_t n, std::int64_t k, const float* a,
             const float* b, float* c, const GemmOpts& opts = {});
void gemm_tt(std::int64_t m, std::int64_t n, std::int64_t k, const float* a,
             const float* b, float* c, const GemmOpts& opts = {});

}  // namespace rt
