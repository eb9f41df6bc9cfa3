#pragma once
// Compressed sparse row (CSR) matrices and the SpMM kernel behind the
// engine's masked-ticket linear head.
//
// The dense GEMM kernels in linalg/gemm.hpp skip zero multipliers
// element-wise, but still pay a load + branch per masked weight. For
// unstructured tickets at 90%+ sparsity the scan itself dominates; packing
// the weight operand into CSR once (at Engine::compile time) makes every
// subsequent multiply proportional to the nonzero count. Column indices are
// 32-bit — weight matrices here are at most a few thousand columns wide.

#include <cstdint>
#include <vector>

namespace rt {

struct CsrMatrix {
  std::int64_t rows = 0;
  std::int64_t cols = 0;
  std::vector<std::int32_t> row_ptr;  ///< size rows + 1
  std::vector<std::int32_t> col_idx;  ///< size nnz
  std::vector<float> values;          ///< size nnz

  std::int64_t nnz() const { return static_cast<std::int64_t>(values.size()); }
  bool empty() const { return rows == 0; }
};

/// Packs a row-major dense (rows, cols) matrix, keeping exact nonzeros.
CsrMatrix csr_from_dense(std::int64_t rows, std::int64_t cols,
                         const float* dense);

/// Y(m, rows) = X * A^T with X dense (m, cols) row-major: the linear-layer
/// shape y = x W^T. Cost is O(m * nnz). The engine's CSR convs do not call
/// it — they run conv2d_forward_csr (linalg/conv.hpp).
void spmm_csr_rhs_t(const CsrMatrix& a, std::int64_t m, const float* x,
                    float* y, bool accumulate = false);

}  // namespace rt
