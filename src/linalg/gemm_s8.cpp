// True int8 GEMM implementation: see gemm_s8.hpp for the quantization scheme
// and determinism contract, microkernel_s8.hpp for the packed layouts.

#include "linalg/gemm_s8.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/audit.hpp"
#include "linalg/microkernel_s8.hpp"

#if defined(__AVX512F__)
#define RT_S8_AVX512 1
#include <immintrin.h>
// GCC's masked-load intrinsics expand through an undef pass-through operand
// that trips -Wmaybe-uninitialized false positives at -O3 (GCC PR105593).
// The maskz_* forms used here zero the masked lanes by definition.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#pragma GCC diagnostic ignored "-Wuninitialized"
#endif
#endif

namespace rt {

namespace {

/// round + clamp a float to [-127, 127]. The clamp precedes the float→int
/// cast: an out-of-range float→int conversion is UB, which is exactly what
/// the UBSan gate would flag.
inline std::int32_t quantize_clamp(float x, float inv_scale) {
  const float r = std::nearbyintf(x * inv_scale);
  const float c = r < -127.0f ? -127.0f : (r > 127.0f ? 127.0f : r);
  return static_cast<std::int32_t>(c);
}

}  // namespace

float amax_abs(const float* x, std::int64_t n) {
#ifdef RT_S8_AVX512
  const __m512 sign_mask = _mm512_castsi512_ps(_mm512_set1_epi32(0x7fffffff));
  __m512 vm = _mm512_setzero_ps();
  std::int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    vm = _mm512_max_ps(vm, _mm512_and_ps(sign_mask, _mm512_loadu_ps(x + i)));
  }
  if (i < n) {
    const __mmask16 k = static_cast<__mmask16>((1u << (n - i)) - 1u);
    vm = _mm512_max_ps(
        vm, _mm512_and_ps(sign_mask, _mm512_maskz_loadu_ps(k, x + i)));
  }
  return _mm512_reduce_max_ps(vm);
#else
  float m = 0.0f;
  for (std::int64_t i = 0; i < n; ++i) {
    m = std::max(m, std::fabs(x[i]));
  }
  return m;
#endif
}

float act_scale_for(float amax) {
  return amax > 0.0f ? amax / 127.0f : 0.0f;
}

RT_HOT void quantize_u8(const float* x, std::int64_t n, float scale,
                        std::uint8_t* q) {
  if (scale <= 0.0f) {
    std::memset(q, 128, static_cast<std::size_t>(n));
    return;
  }
  const float inv = 1.0f / scale;
  for (std::int64_t i = 0; i < n; ++i) {
    q[i] = static_cast<std::uint8_t>(quantize_clamp(x[i], inv) + 128);
  }
}

RT_HOT void quantize_s8(const float* x, std::int64_t n, float scale,
                        std::int8_t* q) {
  if (scale <= 0.0f) {
    std::memset(q, 0, static_cast<std::size_t>(n));
    return;
  }
  const float inv = 1.0f / scale;
  for (std::int64_t i = 0; i < n; ++i) {
    q[i] = static_cast<std::int8_t>(quantize_clamp(x[i], inv));
  }
}

RT_HOT void requant_rows(const std::int32_t* acc, std::int64_t lda,
                         std::int64_t rows, std::int64_t cols,
                         const S8Epilogue& ep, float* y, std::int64_t ldy) {
  float amax = ep.amax ? *ep.amax : 0.0f;
#ifdef RT_S8_AVX512
  const __m512 sign_mask = _mm512_castsi512_ps(_mm512_set1_epi32(0x7fffffff));
  const __m512 vzero = _mm512_setzero_ps();
  __m512 vamax = vzero;
  for (std::int64_t r = 0; r < rows; ++r) {
    const __m512i vcorr = _mm512_set1_epi32(ep.corr ? ep.corr[r] : 0);
    const __m512 vs = _mm512_set1_ps(ep.act_scale * ep.scales[r]);
    const __m512 vb = _mm512_set1_ps(ep.bias ? ep.bias[r] : 0.0f);
    const std::int32_t* arow = acc + r * lda;
    float* yrow = y + r * ldy;
    std::int64_t j = 0;
    for (; j + 16 <= cols; j += 16) {
      const __m512i a = _mm512_sub_epi32(
          _mm512_loadu_si512(arow + j), vcorr);
      __m512 v = _mm512_fmadd_ps(_mm512_cvtepi32_ps(a), vs, vb);
      if (ep.relu) v = _mm512_max_ps(v, vzero);
      _mm512_storeu_ps(yrow + j, v);
      vamax = _mm512_max_ps(vamax, _mm512_and_ps(sign_mask, v));
    }
    if (j < cols) {
      const __mmask16 k = static_cast<__mmask16>((1u << (cols - j)) - 1u);
      const __m512i a = _mm512_sub_epi32(
          _mm512_maskz_loadu_epi32(k, arow + j), vcorr);
      __m512 v = _mm512_fmadd_ps(_mm512_cvtepi32_ps(a), vs, vb);
      if (ep.relu) v = _mm512_max_ps(v, vzero);
      _mm512_mask_storeu_ps(yrow + j, k, v);
      // Zero the masked-out lanes before they enter the amax fold: their
      // accumulators were loaded as zero, so v holds bias-only garbage.
      vamax = _mm512_max_ps(
          vamax, _mm512_and_ps(sign_mask, _mm512_maskz_mov_ps(k, v)));
    }
  }
  amax = std::max(amax, _mm512_reduce_max_ps(vamax));
#else
  for (std::int64_t r = 0; r < rows; ++r) {
    const std::int32_t corr = ep.corr ? ep.corr[r] : 0;
    const float s = ep.act_scale * ep.scales[r];
    const float b = ep.bias ? ep.bias[r] : 0.0f;
    const std::int32_t* arow = acc + r * lda;
    float* yrow = y + r * ldy;
    for (std::int64_t j = 0; j < cols; ++j) {
      float v = static_cast<float>(arow[j] - corr) * s + b;
      if (ep.relu && v < 0.0f) v = 0.0f;
      yrow[j] = v;
      amax = std::max(amax, std::fabs(v));
    }
  }
#endif
  if (ep.amax) *ep.amax = amax;
}

void PackedS8::pack(const std::int8_t* q, std::int64_t rows,
                    std::int64_t cols) {
  rows_ = rows;
  cols_ = cols;
  const std::int64_t rows8 = (rows + kMrS8 - 1) / kMrS8 * kMrS8;
  panels_.assign(static_cast<std::size_t>(rows8 * round_up4(cols)), 0);
  pack_a_quads_s8(q, rows, cols, panels_.data());
  corr_.resize(static_cast<std::size_t>(rows));
  for (std::int64_t r = 0; r < rows; ++r) {
    corr_[static_cast<std::size_t>(r)] = quad_row_offset_sum(q + r * cols, cols);
  }
}

namespace {

// Fixed per-thread B sliver staging for the nn path: one kKcS8 x kNcS8 u8
// tile (64 KiB), sized once — never grows on the serving path, so RT_HOT
// bodies stay allocation-free after first use per thread.
thread_local std::uint8_t bq_tile[kKcS8 * kNcS8];

/// The shared nn driver: accumulates A_q * B_q into acc (m x n int32,
/// overwritten), then hands each finished n-tile to `emit` for the fused
/// epilogue while the accumulator slice is still cache-hot.
template <typename EmitTile>
RT_HOT void gemm_s8_nn_core(std::int64_t m, std::int64_t n, std::int64_t k,
                            const PackedS8& a, const std::uint8_t* b,
                            std::int32_t* acc, EmitTile&& emit) {
  const std::int64_t k4 = round_up4(k);
  std::memset(acc, 0, static_cast<std::size_t>(m * n) * sizeof(std::int32_t));
  std::int32_t tile[kMrS8 * kNrS8];
  for (std::int64_t jc = 0; jc < n; jc += kNcS8) {
    const std::int64_t nb = std::min(kNcS8, n - jc);
    for (std::int64_t kc = 0; kc < k; kc += kKcS8) {
      const std::int64_t kb = std::min(kKcS8, k - kc);
      const std::int64_t kq = round_up4(kb) / 4;
      pack_b_quads_u8(b, n, kc, kb, jc, nb, bq_tile);
      for (std::int64_t ir = 0; ir < m; ir += kMrS8) {
        const std::int64_t mr = std::min(kMrS8, m - ir);
        // Panel slice for this k block: panels store full depth k4
        // quad-major, so the block at kc starts kc * kMrS8 bytes in.
        const std::int8_t* ap = a.panels() + ir * k4 + kc * kMrS8;
        for (std::int64_t jr = 0; jr < nb; jr += kNrS8) {
          const std::int64_t nr = std::min(kNrS8, nb - jr);
          detail::micro_s8_block(kq, ap, bq_tile + jr * round_up4(kb), tile);
          acc_block_add(tile, acc + ir * n + jc + jr, n, mr, nr);
        }
      }
    }
    emit(jc, nb);
  }
}

}  // namespace

RT_HOT void gemm_s8_nn(std::int64_t m, std::int64_t n, std::int64_t k,
                       const PackedS8& a, const std::uint8_t* b,
                       std::int32_t* acc, float* c, const S8Epilogue& ep) {
  S8Epilogue e = ep;
  if (!e.corr) e.corr = a.corr();
  gemm_s8_nn_core(m, n, k, a, b, acc, [&](std::int64_t jc, std::int64_t nb) {
    // corr/scales/bias index rows; the column slice shifts only the data
    // pointers. requant_rows itself carries the running amax across tiles.
    requant_rows(acc + jc, n, m, nb, e, c + jc, n);
  });
}

RT_HOT void gemm_s8_nt(std::int64_t m, std::int64_t n, std::int64_t k,
                       const std::uint8_t* x, std::int64_t ldx,
                       const std::int8_t* w_slivers, std::int32_t* acc,
                       float* c, const S8Epilogue& ep) {
  const std::int64_t k4 = round_up4(k);
  const std::int64_t kq = k4 / 4;
  std::int32_t tile[kMrS8 * kNrS8];
  for (std::int64_t ir = 0; ir < m; ir += kMrS8) {
    const std::int64_t mr = std::min(kMrS8, m - ir);
    for (std::int64_t jr = 0; jr < n; jr += kNrS8) {
      const std::int64_t nr = std::min(kNrS8, n - jr);
      detail::micro_u8x_block(kq, x + ir * ldx, ldx, mr, w_slivers + jr * k4,
                              tile);
      // Overwrite semantics: copy the clipped block instead of accumulating.
      for (std::int64_t i = 0; i < mr; ++i) {
        std::memcpy(acc + (ir + i) * n + jr, tile + i * kNrS8,
                    static_cast<std::size_t>(nr) * sizeof(std::int32_t));
      }
    }
  }
  // Epilogue indexes output FEATURES, which are C's columns here: requant
  // row-by-row with per-column parameters.
  float amax = ep.amax ? *ep.amax : 0.0f;
  for (std::int64_t i = 0; i < m; ++i) {
    const std::int32_t* arow = acc + i * n;
    float* yrow = c + i * n;
    for (std::int64_t j = 0; j < n; ++j) {
      const std::int32_t corr = ep.corr ? ep.corr[j] : 0;
      float v = static_cast<float>(arow[j] - corr) * ep.act_scale *
                    ep.scales[j] +
                (ep.bias ? ep.bias[j] : 0.0f);
      if (ep.relu && v < 0.0f) v = 0.0f;
      yrow[j] = v;
      const float a = std::fabs(v);
      if (a > amax) amax = a;
    }
  }
  if (ep.amax) *ep.amax = amax;
}

}  // namespace rt
