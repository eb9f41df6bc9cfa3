#pragma once
// Convolution kernel layer: fused implicit-GEMM forward / input-gradient /
// weight-gradient over one (C, H, W) plane, plus the int8 serving forward
// over a batch of planes.
// Every fp32 forward and input-gradient call runs the packed implicit GEMM,
// whatever the weight's zero count; no caller-set switch selects a path.
// The direct-loop oracle these kernels are verified against lives in
// tests/test_conv_kernels.cpp.
//
// The implicit kernels view the convolution as the GEMMs
//
//   forward:  Y (out_ch, OH*OW)  = W (out_ch, C*k*k) * col(X)
//   dgrad:    dcol (C*k*k, OH*OW) = W^T * dY,  scattered back into dX
//   wgrad:    dW (out_ch, C*k*k) += dY * col(X)^T
//
// but never materialize col(X): panels of the virtual im2col matrix are
// gathered on the fly — in cache-sized tiles, zero-padded at image borders —
// straight into the packed layout the shared register-tiled micro-kernel
// (linalg/microkernel.hpp) consumes, and for dgrad each computed tile is
// scattered into dX while still cache-hot. The full per-sample column buffer
// (C*k*k * OH*OW floats, the dominant memory traffic of small-image
// training) is gone from the hot path.
//
// The forward's border handling is paid once per call, not per gathered
// element: a padded layer first copies its input into a zero-bordered
// (C, H+2p, W+2p) staging plane, so each B-sliver row is one 8-float copy
// when its pixels are contiguous (stride 1, within one output row) and 8
// unguarded loads otherwise. The int8 forward stages the same way (border
// byte 128) through the same helper, and both share one 256 KiB staging
// cap. Unpadded layers (the 1x1 downsample convs) and planes past the cap
// take the clipped gather instead, which guards each border run. Both
// gathers pack the same values in the same k order, so the choice never
// changes a bit. The dgrad scatter and the wgrad gather still guard every
// border tap.
//
// The kernels are serial by default: batch-level parallelism (one sample per
// scheduler task, one Session workspace per predict) composes better than
// intra-plane threading at these extents. When the batch is too small to
// fill the machine, ConvKernelOpts::parallel_tiles splits the forward and
// weight-gradient kernels' output-column tile loops into stealable subtasks
// on the work-stealing scheduler instead — tiles write disjoint outputs and
// keep each element's accumulation order unchanged, so results stay bitwise
// identical to the serial path. The input-gradient kernel stays serial per
// plane: its tiles scatter-add into overlapping dx positions. A serial
// forward stages into a fixed thread-local buffer (allocation-free); a
// tile-parallel one stages into a buffer its own frame owns, because its
// caller helps run other tasks while it waits and may re-enter the kernel.

#include <cstdint>
#include <vector>

#include "linalg/gemm_s8.hpp"

namespace rt {

/// Geometry of a convolution: output size given input size.
struct ConvGeometry {
  std::int64_t kernel = 3;
  std::int64_t stride = 1;
  std::int64_t padding = 1;
  std::int64_t out_extent(std::int64_t in_extent) const {
    return (in_extent + 2 * padding - kernel) / stride + 1;
  }
};

/// Weight panels in the packed micro-kernel layout, gathered once and reused
/// across every plane call that shares the weight — per batch in Conv2d, per
/// CompiledTicket in the engine (packed at Engine::compile time). Removes
/// the per-sample panel re-pack (cost 1/OHW of the MACs, noticeable at tiny
/// planes). The panels are exactly what the kernels would have packed
/// locally, so results are bitwise unchanged.
class PackedWeights {
 public:
  /// Packs W (out_ch x ckk): `forward` gathers the kMr row panels the
  /// forward kernel consumes, `dgrad` the W^T panels of the input-gradient
  /// kernel. Either may be skipped to save the memory.
  void pack(const float* weight, std::int64_t out_ch, std::int64_t ckk,
            bool forward, bool dgrad);
  void clear();

  bool matches(std::int64_t out_ch, std::int64_t ckk) const {
    return out_ch == out_ch_ && ckk == ckk_;
  }
  bool has_forward() const { return !fwd_.empty(); }
  bool has_dgrad() const { return !dgrad_.empty(); }
  /// Resident bytes of the packed panels — the memory a plan that retains
  /// this handle pays on top of the raw weights.
  std::int64_t bytes() const {
    return static_cast<std::int64_t>((fwd_.size() + dgrad_.size()) *
                                     sizeof(float));
  }
  /// round_up(out_ch, kMr) row panels of width ckk.
  const float* forward_panels() const { return fwd_.data(); }
  /// round_up(ckk, kMr) row panels of width out_ch (the packed transpose).
  const float* dgrad_panels() const { return dgrad_.data(); }

 private:
  std::vector<float> fwd_;
  std::vector<float> dgrad_;
  std::int64_t out_ch_ = 0;
  std::int64_t ckk_ = 0;
};

struct ConvKernelOpts {
  /// Unread: no kernel consults it. It stays declared only because the
  /// frozen benchmark probes (perfbench/src/probes.cpp) set it; delete it
  /// together with that line.
  float weight_zero_fraction = -1.0f;
  /// Pre-packed panels for this weight (see PackedWeights). Consulted when
  /// the extents match; the kernels fall back to local packing otherwise.
  const PackedWeights* packed_weights = nullptr;
  /// Split the forward/wgrad output-column tile loop into stealable
  /// subtasks on the current scheduler. Off by default — batch-level
  /// parallelism should stay the outer loop when the batch fills the
  /// machine; flip it on when it does not (see Conv2d::forward).
  bool parallel_tiles = false;
};

/// Forward: y (out_ch, OH, OW) = weight (out_ch, C*k*k) applied to x
/// (c_in, h, w). y is fully overwritten. When `bias` is non-null a
/// per-channel bias is fused into the epilogue, and `relu` additionally
/// clamps at zero — the serving engine's folded conv+BN(+ReLU) epilogue.
void conv2d_forward_plane(const float* x, std::int64_t c_in, std::int64_t h,
                          std::int64_t w, const ConvGeometry& g,
                          const float* weight, std::int64_t out_ch, float* y,
                          const float* bias = nullptr, bool relu = false,
                          const ConvKernelOpts& opts = {});

/// True int8 forward (serving only): y_i (out_ch, OH, OW) float =
/// requant(W_q (out_ch, C*k*k) * col(X_q,i)) for n offset-u8 input planes,
/// sample i's plane at xq + i * x_stride and its output at y + i * y_stride
/// (a single plane is n = 1). The batch runs as one implicit GEMM whose
/// column space is (sample, output pixel): panels of col(X_q) are gathered
/// straight into the int8 kernel's quad-sliver layout, out-of-image taps
/// reading as the zero encoding 128, so B-staging, micro-tile and epilogue
/// fixed costs amortize over n * OH*OW columns — the win on tiny planes.
/// `w_panels` are the weight's quad panels (PackedS8 / pack_a_quads_s8,
/// packed at compile time). `acc` is caller scratch of at least
/// out_ch * OH*OW int32, used only when round_up4(C*k*k) exceeds kKcFullS8:
/// such deep-k layers run one sample at a time, blocking k through `acc`;
/// smaller extents accumulate in registers. The gather takes one of three
/// strategies: `gather_idx`, when non-null, is a precomputed C*k*k x OH*OW
/// source-index table (build_s8_gather_index) — worth it for narrow or
/// strided planes whose image rows are too short to amortize per-row setup;
/// otherwise stride-1 padded layers stage padded copies of the planes (while
/// they fit one fixed cap) and gather whole rows by memcpy, and everything
/// else takes the clipped run-gather. The epilogue's per-row fields index
/// output channels. Serial, bitwise deterministic: integer accumulation is
/// exact, and each output is one float expression, so the result is the
/// same for every gather strategy and every n.
void conv2d_forward_s8(const std::uint8_t* xq, std::int64_t n,
                       std::int64_t x_stride, std::int64_t c_in,
                       std::int64_t h, std::int64_t w, const ConvGeometry& g,
                       const std::int8_t* w_panels, std::int64_t out_ch,
                       std::int32_t* acc, float* y, std::int64_t y_stride,
                       const S8Epilogue& ep,
                       const std::int32_t* gather_idx = nullptr);

/// Precomputes the virtual-im2col source-index table for conv2d_forward_s8:
/// entry [p * OH*OW + j] is the offset within one input plane feeding
/// column row p at output pixel j, or -1 for out-of-image taps (the gather
/// substitutes the zero encoding 128). Compile-time only — the engine builds
/// one per narrow or strided int8 conv layer.
std::vector<std::int32_t> build_s8_gather_index(std::int64_t c_in,
                                                std::int64_t h, std::int64_t w,
                                                const ConvGeometry& g);

/// Sparse-weight x dense-activation conv forward (serving only) over n
/// (c_in, h, w) planes: y_i = relu?(bias + W * col(x_i)), W in CSR with each
/// nonzero's column resolved by csr_stage_offsets. Samples are staged
/// zero-bordered and batch-innermost into `scratch` (csr_scratch_elems), so
/// each nonzero is one broadcast multiply-add over contiguous (pixel,
/// sample) lanes. Each output is bias plus the row's nonzeros in CSR order
/// (an out-of-image tap adds an exact zero), whatever the batch around it.
void conv2d_forward_csr(const float* x, std::int64_t n, std::int64_t c_in,
                        std::int64_t h, std::int64_t w, const ConvGeometry& g,
                        const std::int32_t* row_ptr,
                        const std::int32_t* offsets, const float* values,
                        std::int64_t out_ch, const float* bias, bool relu,
                        float* scratch, float* y);

/// The int8 form: signed-s8 planes and values, int32 accumulation and the
/// requant epilogue (fields index output channels; corr is unused).
void conv2d_forward_csr_s8(const std::int8_t* xq, std::int64_t n,
                           std::int64_t c_in, std::int64_t h, std::int64_t w,
                           const ConvGeometry& g, const std::int32_t* row_ptr,
                           const std::int32_t* offsets,
                           const std::int8_t* values, std::int64_t out_ch,
                           const S8Epilogue& ep, std::int32_t* scratch,
                           float* y);

/// Compile time: the staged-input offset of each CSR column index
/// (c * k*k + ki * k + kj, the Conv2d weight layout) over h x w planes.
std::vector<std::int32_t> csr_stage_offsets(
    const std::vector<std::int32_t>& col_idx, std::int64_t h, std::int64_t w,
    const ConvGeometry& g);

/// Scratch, in 4-byte elements, of the fp32 (s8 = false) or int8 CSR
/// forward over (c_in, h, w) planes, at any n.
std::int64_t csr_scratch_elems(std::int64_t c_in, std::int64_t h,
                               std::int64_t w, const ConvGeometry& g, bool s8);

/// Input gradient: dx (c_in, h, w) += weight^T applied to gout
/// (out_ch, OH, OW). Accumulates (callers zero-initialize dx once per batch).
void conv2d_dgrad_plane(const float* weight, std::int64_t out_ch,
                        const float* gout, std::int64_t c_in, std::int64_t h,
                        std::int64_t w, const ConvGeometry& g, float* dx,
                        const ConvKernelOpts& opts = {});

/// Weight gradient: dw (out_ch, C*k*k) += gout (out_ch, OH, OW) *
/// col(x)^T. Accumulates into dw (per-sample calls sum over the batch).
/// Gradients are dense regardless of weight masks (masked entries are
/// re-zeroed by the optimizer).
void conv2d_wgrad_plane(const float* gout, const float* x, std::int64_t c_in,
                        std::int64_t h, std::int64_t w, const ConvGeometry& g,
                        std::int64_t out_ch, float* dw,
                        const ConvKernelOpts& opts = {});

}  // namespace rt
