#pragma once
// True int8 GEMM: s8 weights x offset-u8 activations with int32 accumulation
// and fused requantization epilogues. This is the execution layer behind the
// engine's int8-native plans (engine/plan.cpp) — the hw/quant values+scales
// sidecar defines the wire format, these kernels execute it without
// dequantizing to float first.
//
// Quantization scheme (matches hw/quant's symmetric fake-quant exactly):
//   weights      q_w = clamp(round(w / s_w), -127, 127)   stored s8
//   activations  q_x = clamp(round(x / s_x), -127, 127)   stored u8 = q_x+128
// The +128 offset exists because the fast path (AVX512-VNNI vpdpbusd)
// multiplies unsigned by signed bytes. The raw accumulator then carries a
// per-output-row constant 128 * sum_k(q_w) — precomputed at pack time and
// subtracted in the epilogue — so the corrected int32 equals the exact
// signed dot product and the whole pipeline is bitwise deterministic: same
// inputs, same plan, same bits, on the VNNI and portable fallback paths
// alike.
//
// Requant epilogue (float multiply, no shift rounding — exact and
// UBSan-clean): y = (acc - corr) * (s_x * s_w[row]) + bias[row], optional
// ReLU, optional running amax tracking (feeds the NEXT layer's dynamic
// activation scale).

#include <cstdint>
#include <vector>

namespace rt {

/// Per-output-row requantization parameters for the fused epilogue. For the
/// nt (head) shape the "row" index runs over C's COLUMNS (output features);
/// the field meanings are otherwise identical.
struct S8Epilogue {
  const float* scales = nullptr;      ///< per-row weight scales s_w
  float act_scale = 0.0f;             ///< activation scale s_x
  const std::int32_t* corr = nullptr; ///< per-row 128 * sum_k(q_w) offset
  const float* bias = nullptr;        ///< optional per-row bias
  bool relu = false;
  /// Optional running max|y| across calls sharing the epilogue (the caller
  /// zero-initializes once per batch); feeds dynamic activation quantization
  /// of the next layer.
  float* amax = nullptr;
};

/// max |x| over n floats (0 for n == 0). The producer side of dynamic
/// per-batch activation quantization.
float amax_abs(const float* x, std::int64_t n);

/// The activation scale for a given batch amax: amax / 127, or 0 when the
/// batch is entirely zero (quantize_* then emit exact zeros and the requant
/// product vanishes, so math stays exact).
float act_scale_for(float amax);

/// Quantizes n floats to offset-u8: clamp(round(x / scale), -127, 127) + 128.
/// scale <= 0 stores the zero encoding (128) everywhere.
void quantize_u8(const float* x, std::int64_t n, float scale,
                 std::uint8_t* q);

/// Quantizes n floats to signed s8 (no offset): the CSR forward uses this
/// flavor, so its staged zero border needs no offset correction.
void quantize_s8(const float* x, std::int64_t n, float scale, std::int8_t* q);

/// Applies the requant epilogue to an int32 accumulator block: for each of
/// `rows` rows (leading dimension `lda`) and `cols` columns,
/// y = (acc - corr[row]) * act_scale * scales[row] + bias[row], ReLU, amax.
/// Output rows have leading dimension `ldy`.
void requant_rows(const std::int32_t* acc, std::int64_t lda,
                  std::int64_t rows, std::int64_t cols, const S8Epilogue& ep,
                  float* y, std::int64_t ldy);

/// Prepacked s8 left-hand operand: quad panels (see linalg/microkernel_s8)
/// plus the per-row offset correction. Rows are weight output channels.
class PackedS8 {
 public:
  PackedS8() = default;

  /// Packs a row-major s8 matrix (rows x cols). Allocates; pack at compile
  /// time, never on the serving path.
  void pack(const std::int8_t* q, std::int64_t rows, std::int64_t cols);

  std::int64_t rows() const { return rows_; }
  std::int64_t cols() const { return cols_; }
  bool empty() const { return rows_ == 0; }
  const std::int8_t* panels() const { return panels_.data(); }
  const std::int32_t* corr() const { return corr_.data(); }
  /// Resident bytes (panels + corrections) for memory accounting.
  std::int64_t bytes() const {
    return static_cast<std::int64_t>(panels_.size()) +
           static_cast<std::int64_t>(corr_.size()) * 4;
  }

 private:
  std::int64_t rows_ = 0;
  std::int64_t cols_ = 0;
  std::vector<std::int8_t> panels_;
  std::vector<std::int32_t> corr_;
};

/// C(m,n) float = requant(A_q(m,k) * B_q(k,n)): prepacked s8 A panels times
/// a row-major offset-u8 B. `acc` is caller-provided scratch of at least
/// m * n int32 (overwritten) — the engine passes its arena workspace, so the
/// serving path allocates nothing. ep.corr defaults to a.corr() when null.
void gemm_s8_nn(std::int64_t m, std::int64_t n, std::int64_t k,
                const PackedS8& a, const std::uint8_t* b, std::int32_t* acc,
                float* c, const S8Epilogue& ep);

/// The head shape: C(m,n) float = requant(X_q(m,k) * W_q(n,k)^T). X is
/// offset-u8 row-major with leading dimension ldx >= round_up4(k) (rows
/// quad-padded with the zero encoding 128); W is prepacked full-depth quad
/// slivers (pack_b_quads_s8_nt). Epilogue fields index C's columns (output
/// features). `acc` is caller scratch of at least m * n int32.
void gemm_s8_nt(std::int64_t m, std::int64_t n, std::int64_t k,
                const std::uint8_t* x, std::int64_t ldx,
                const std::int8_t* w_slivers, std::int32_t* acc, float* c,
                const S8Epilogue& ep);

}  // namespace rt
