#pragma once
// The compiled execution plan behind rt::Engine: an immutable, inference-only
// representation of a finished ticket.
//
// Engine::compile (engine/engine.hpp) freezes a ResNet into a CompiledTicket:
//   - conv + batch-norm (+ ReLU) folding: each conv's weights are rescaled by
//     gamma / sqrt(var + eps) and the normalization collapses into a per-
//     channel bias, so inference never touches BatchNorm2d again;
//   - per-layer weight packing into a real executable encoding chosen from
//     the hw/storage taxonomy: dense row-major, channel-compact (kept rows
//     stored contiguously — the right shape for row/channel-pruned tickets),
//     or CSR (linalg/sparse.hpp) for unstructured high sparsity, so masked-
//     ticket inference costs O(nonzeros) instead of O(numel);
//   - optional int8 weight quantization via hw/quant (symmetric per-channel):
//     the plan carries the int8 values + scales it ships, and by default
//     EXECUTES them natively — weights packed into the int8 kernel layer's
//     quad panels (linalg/gemm_s8, linalg/microkernel_s8), activations
//     quantized per batch from the amax the preceding epilogue tracked,
//     int32 accumulation with fused requant/bias/ReLU epilogues. Setting
//     CompileOptions::int8_native = false keeps the legacy simulated-PTQ
//     float execution (the accuracy reference the parity tests compare
//     against);
//   - frozen input geometry, so every activation extent is known at compile
//     time and a Workspace can pre-allocate all scratch in one arena.
//
// CompiledTicket is strictly read-only after compile: concurrent predictions
// only need a Workspace each (see engine/engine.hpp's Session).

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "linalg/gemm_s8.hpp"
#include "linalg/sparse.hpp"
#include "nn/conv.hpp"
#include "tensor/tensor.hpp"

namespace rt {

/// Executable weight encodings. These mirror the storage-cost taxonomy in
/// hw/storage.hpp (dense / channel-compact / CSR), but hold fp32 values
/// because that is what the CPU kernels consume; int8 quantization is an
/// orthogonal flag (see CompileOptions::int8_weights).
enum class PackedFormat { kDense, kChannelCompact, kCsr };

const char* packed_format_name(PackedFormat format);

struct CompileOptions {
  /// Frozen input geometry. Serving engines trade shape flexibility for
  /// exact buffer planning; predict() rejects other extents.
  std::int64_t height = 16;
  std::int64_t width = 16;

  /// Per-layer packing override; unset selects per layer from the weight's
  /// zero structure (see choose_packed_format).
  std::optional<PackedFormat> force_format;

  /// Quantize folded weights to int8 (symmetric per output channel) before
  /// packing; the plan's byte accounting prices the int8 encoding.
  bool int8_weights = false;
  /// Execute int8 plans natively on the quantized kernel layer (int32
  /// accumulation, dynamic per-batch activation scales). false runs the
  /// same fp32 executor on the fake-quantized weights instead: the
  /// simulated-PTQ reference the int8 parity tests compare against.
  bool int8_native = true;
};

/// Chooses the packed encoding for a folded (rows, cols) weight matrix with
/// the given nonzero count and surviving-row count.
PackedFormat choose_packed_format(std::int64_t rows, std::int64_t cols,
                                  std::int64_t nnz, std::int64_t kept_rows,
                                  const CompileOptions& options);

/// Per-layer compilation record, for reporting and format tables.
struct LayerPlan {
  std::string name;
  PackedFormat format = PackedFormat::kDense;
  bool quantized = false;
  std::int64_t rows = 0;
  std::int64_t cols = 0;
  std::int64_t nnz = 0;
  std::int64_t kept_rows = 0;
  std::int64_t packed_bytes = 0;     ///< executable weights + bias (+ scales)
  /// Host-side micro-kernel panel cache (PackedConv::prepacked): resident
  /// serving memory on top of packed_bytes, but not part of the shippable
  /// encoding — an edge target ships packed_bytes and repacks on device.
  std::int64_t prepacked_bytes = 0;
  std::int64_t dense_macs = 0;       ///< per sample, before sparsity
  std::int64_t effective_macs = 0;   ///< per sample, proportional to nnz
};

class CompiledTicket;

/// Pre-allocated scratch for one in-flight prediction: three rotating
/// full-batch activation buffers plus the channel-compact epilogue scratch,
/// all carved from one contiguous arena sized at construction. The conv
/// kernels gather their packed panels into fixed-size thread-local buffers
/// (no per-layer im2col extent to plan), so steady-state predict() calls
/// perform no heap allocation.
class Workspace {
 public:
  Workspace(const CompiledTicket& plan, int max_batch);

  float* act(int i) { return act_[static_cast<std::size_t>(i)]; }
  float* tmp() { return tmp_; }
  int max_batch() const { return max_batch_; }

  /// int8-native plans only (empty otherwise): the quantized-activation
  /// staging buffer — each layer quantizes its float input batch here in the
  /// flavor its kernel consumes (offset-u8 for the implicit-GEMM and head
  /// paths, signed s8 for the CSR tap path).
  std::uint8_t* qin() { return qin_.data(); }
  /// int8-native plans only: the int32 accumulation plane the fused requant
  /// epilogues drain (sized for the largest conv plane, the CSR batch
  /// accumulator, and the head's logits block).
  std::int32_t* acc() { return acc_.data(); }

 private:
  std::vector<float> arena_;
  std::vector<std::uint8_t> qin_;
  std::vector<std::int32_t> acc_;
  float* act_[3] = {nullptr, nullptr, nullptr};
  float* tmp_ = nullptr;
  int max_batch_ = 0;
};

/// A conv with its batch norm folded in, weights packed, and an optional
/// fused ReLU epilogue.
struct PackedConv {
  std::string name;
  PackedFormat format = PackedFormat::kDense;
  ConvGeometry geom;
  std::int64_t in_ch = 0, out_ch = 0;
  std::int64_t in_h = 0, in_w = 0, out_h = 0, out_w = 0;
  bool relu = false;

  /// kDense: (out_ch, ckk); kChannelCompact: (kept_rows.size(), ckk).
  std::vector<float> weight;
  /// Micro-kernel weight panels, packed once at Engine::compile time for
  /// the dense and channel-compact fp32 layers — serve-time calls skip the
  /// per-call panel re-pack entirely. Empty for CSR and int8 layers, which
  /// never consume panels.
  PackedWeights prepacked;
  std::vector<std::int32_t> kept;  ///< kChannelCompact: surviving channels
  CsrMatrix csr;                   ///< kCsr
  /// kCsr implicit-conv tap, one per nonzero: everything the inner loop
  /// needs, resolved at compile time from the frozen geometry. The sparse
  /// conv path slides each nonzero directly over the input — no im2col
  /// materialization and no per-nonzero index arithmetic at runtime — so
  /// cost is O(nnz * out_h * out_w) flat.
  struct SparseTap {
    std::int32_t x_start;       ///< flat offset of the first in-bounds input
    std::int32_t y_start;       ///< flat offset into the output plane
    /// Extent of the valid output window. Full-width stride-1 windows are
    /// collapsed at compile time into rows == 1 with cols == rows * width —
    /// input and output are both contiguous there, so the whole window runs
    /// as one long vectorizable axpy.
    std::int32_t rows, cols;
  };
  std::vector<SparseTap> taps;  ///< parallel to csr.values
  std::vector<float> bias;         ///< per out_ch, from BN folding

  // Shippable int8 sidecar (populated when CompileOptions::int8_weights):
  // one value per stored float above, plus a per-output-channel scale.
  std::vector<std::int8_t> qvalues;
  std::vector<float> qscales;

  // True int8 execution (CompileOptions::int8_native): the sidecar packed
  // into executable operands at compile time. Dense/channel-compact layers
  // carry quad panels + offset corrections (qpacked) and the per-packed-row
  // scale vector the requant epilogue indexes; the CSR tap path executes
  // qvalues + qscales directly over signed-s8 activations. Native layers
  // drop the dequantized float weights — the integers ARE the executable.
  bool int8_exec = false;
  PackedS8 qpacked;
  std::vector<float> qexec_scales;
  /// Precomputed im2col source-index table (build_s8_gather_index) for
  /// narrow or strided layers, where it beats conv2d_forward_s8's
  /// padded-plane and clipped run-gathers; empty otherwise.
  std::vector<std::int32_t> qgather;

  std::int64_t in_floats() const { return in_ch * in_h * in_w; }
  std::int64_t out_floats() const { return out_ch * out_h * out_w; }

  /// Runs the folded conv over a batch: in/out are full-batch activation
  /// buffers laid out (n, ch, h, w). Serial by design — Session concurrency
  /// comes from independent predict() calls, not intra-op threading.
  /// int8-native layers additionally take the batch amax of `in` (their
  /// dynamic activation scale) and, when `out_amax` is non-null, report the
  /// batch amax of `out` for the next layer's scale.
  void run(const float* in, float* out, std::int64_t n, Workspace& ws,
           float in_amax = 0.0f, float* out_amax = nullptr) const;

 private:
  /// The int8-native executor behind run(): quantizes the input batch into
  /// the workspace staging buffer and dispatches to the quantized
  /// implicit-GEMM or the integer tap path.
  void run_s8(const float* in, float* out, std::int64_t n, Workspace& ws,
              float in_amax, float* out_amax) const;
};

/// The classifier head with packed weights (dense or CSR).
struct PackedLinear {
  std::string name;
  PackedFormat format = PackedFormat::kDense;
  std::int64_t in_features = 0, out_features = 0;

  std::vector<float> weight;  ///< (out, in) when kDense
  CsrMatrix csr;
  std::vector<float> bias;
  std::vector<std::int8_t> qvalues;
  std::vector<float> qscales;

  // True int8 execution (dense heads only; a CSR head under a native plan
  // keeps the simulated float path — the layer is tiny and spmm already
  // skips zeros): full-depth quad slivers of the (out, in) weights plus the
  // per-output-feature offset correction.
  bool int8_exec = false;
  std::vector<std::int8_t> qslivers;
  std::vector<std::int32_t> qcorr;

  void run(const float* in, float* out, std::int64_t n, Workspace& ws,
           float in_amax = 0.0f) const;
};

/// One residual block: convs fused with their BNs; the shortcut add and
/// final ReLU are applied by the executor.
struct CompiledBlock {
  PackedConv c1, c2;
  std::optional<PackedConv> c3;    ///< bottleneck only
  std::optional<PackedConv> down;  ///< projection shortcut
};

/// The frozen execution plan. Immutable after Engine::compile; safe to share
/// across threads by const reference.
class CompiledTicket {
 public:
  /// Runs n samples (n <= ws.max_batch()) from `x` (n, in_ch, h, w planes,
  /// row-major) writing (n, num_classes) logits to `logits`.
  void run(const float* x, std::int64_t n, float* logits,
           Workspace& ws) const;

  /// Convenience single-shot predict allocating the result tensor; batches
  /// larger than ws.max_batch() are processed in chunks.
  Tensor predict(const Tensor& x, Workspace& ws) const;

  /// Throws unless x is an (n, in_ch, height, width) batch matching the
  /// compiled geometry — the validation predict() applies, exposed for
  /// callers that chunk a batch themselves (Session's scheduler mode).
  void check_input(const Tensor& x) const;

  std::int64_t height() const { return height_; }
  std::int64_t width() const { return width_; }
  std::int64_t in_channels() const { return in_channels_; }
  int num_classes() const { return num_classes_; }
  int feature_dim() const { return feature_dim_; }

  const std::vector<LayerPlan>& layers() const { return layers_; }
  /// Executable (shippable) bytes of all packed weights and biases.
  std::int64_t packed_bytes() const;
  /// Host-resident pre-packed panel bytes on top of packed_bytes().
  std::int64_t prepacked_bytes() const;
  /// Per-sample multiply-accumulate counts summed over all layers.
  std::int64_t dense_macs() const;
  std::int64_t effective_macs() const;

  /// Largest per-sample activation plane across the plan (Workspace sizing).
  std::int64_t max_plane_floats() const { return max_plane_floats_; }
  /// Largest per-sample conv output scratch (channel-compact epilogue).
  std::int64_t tmp_floats() const { return tmp_floats_; }
  /// Largest conv output spatial plane (Workspace int8 accumulator sizing).
  std::int64_t max_ohw() const { return max_ohw_; }
  /// True when this plan executes the int8 kernel layer natively (the
  /// Workspace then carves the quantized-activation and int32 arenas).
  bool int8_native() const { return int8_native_; }

 private:
  friend class Engine;

  PackedConv stem_;
  std::vector<CompiledBlock> blocks_;
  PackedLinear head_;

  std::int64_t height_ = 0, width_ = 0, in_channels_ = 0;
  std::int64_t feat_h_ = 0, feat_w_ = 0;  ///< spatial extent entering GAP
  int num_classes_ = 0, feature_dim_ = 0;
  std::int64_t max_plane_floats_ = 0, tmp_floats_ = 0, max_ohw_ = 0;
  bool int8_native_ = false;
  std::vector<LayerPlan> layers_;
};

}  // namespace rt
