#include "engine/engine.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "common/audit.hpp"
#include "common/scheduler.hpp"
#include "hw/quant.hpp"
#include "linalg/microkernel_s8.hpp"
#include "models/blocks.hpp"
#include "nn/activations.hpp"
#include "nn/loss.hpp"

namespace rt {

namespace {

// Bit width of int8_weights quantization: the native kernels' offset
// arithmetic assumes q in [-127, 127].
constexpr int kInt8Bits = 8;

std::int64_t div_round_up(std::int64_t a, std::int64_t b) {
  return (a + b - 1) / b;
}

std::string base_name(const std::string& param_name) {
  const std::string suffix = ".weight";
  if (param_name.size() > suffix.size() &&
      param_name.compare(param_name.size() - suffix.size(), suffix.size(),
                         suffix) == 0) {
    return param_name.substr(0, param_name.size() - suffix.size());
  }
  return param_name;
}

/// Packs a folded (rows, cols) weight matrix + bias into the chosen format,
/// fills the int8 sidecar, and appends the layer's plan record. The weight
/// buffer is consumed.
template <typename Packed>
void pack_weights(Packed& p, std::vector<float> w, std::int64_t rows,
                  std::int64_t cols, std::int64_t macs_per_weight,
                  const CompileOptions& options,
                  std::vector<LayerPlan>& plans, bool allow_compact) {
  std::vector<float> scales;
  if (options.int8_weights) {
    scales = fake_quantize_matrix(w.data(), rows, cols,
                                  QuantScheme::kPerChannel, kInt8Bits);
  }

  std::int64_t nnz = 0;
  std::vector<std::int32_t> kept;
  for (std::int64_t r = 0; r < rows; ++r) {
    std::int64_t row_nnz = 0;
    for (std::int64_t c = 0; c < cols; ++c) {
      if (w[static_cast<std::size_t>(r * cols + c)] != 0.0f) ++row_nnz;
    }
    if (row_nnz > 0) kept.push_back(static_cast<std::int32_t>(r));
    nnz += row_nnz;
  }

  PackedFormat format = choose_packed_format(
      rows, cols, nnz, static_cast<std::int64_t>(kept.size()), options);
  // The head has no spatial scatter path; CSR covers its pruned-row case.
  if (!allow_compact && format == PackedFormat::kChannelCompact) {
    format = PackedFormat::kCsr;
  }
  p.format = format;

  LayerPlan plan;
  plan.name = p.name;
  plan.format = format;
  plan.quantized = options.int8_weights;
  plan.rows = rows;
  plan.cols = cols;
  plan.nnz = nnz;
  plan.kept_rows = static_cast<std::int64_t>(kept.size());
  plan.dense_macs = rows * cols * macs_per_weight;

  const std::int64_t value_bytes = options.int8_weights ? 1 : 4;
  switch (format) {
    case PackedFormat::kDense: {
      p.weight = std::move(w);
      plan.effective_macs = plan.dense_macs;
      plan.packed_bytes = rows * cols * value_bytes;
      break;
    }
    case PackedFormat::kChannelCompact: {
      if constexpr (requires { p.kept; }) {
        p.kept = kept;
        p.weight.resize(static_cast<std::size_t>(
            static_cast<std::int64_t>(kept.size()) * cols));
        for (std::size_t k = 0; k < kept.size(); ++k) {
          const float* src =
              w.data() + static_cast<std::int64_t>(kept[k]) * cols;
          std::copy(src, src + cols,
                    p.weight.data() + static_cast<std::int64_t>(k) * cols);
        }
      } else {
        throw std::logic_error("channel-compact packing needs a scatter path");
      }
      plan.effective_macs =
          static_cast<std::int64_t>(kept.size()) * cols * macs_per_weight;
      plan.packed_bytes = static_cast<std::int64_t>(kept.size()) * cols *
                              value_bytes +
                          div_round_up(rows, 8);  // kept-row bitmap
      break;
    }
    case PackedFormat::kCsr: {
      p.csr = csr_from_dense(rows, cols, w.data());
      plan.effective_macs = nnz * macs_per_weight;
      // values + 32-bit column indices + row pointers.
      plan.packed_bytes = nnz * value_bytes + nnz * 4 + (rows + 1) * 4;
      break;
    }
  }

  if (options.int8_weights) {
    // fake_quantize_matrix left every stored float equal to q * scale, so
    // the shippable integer is recovered exactly. The scale row of a stored
    // value follows from its position: t/cols for the dense-style layouts
    // (through `kept` when rows were compacted), the row_ptr walk for CSR.
    const std::vector<float>& stored =
        format == PackedFormat::kCsr ? p.csr.values : p.weight;
    const auto quantized = [&scales](float v, std::int64_t row) {
      const float s = scales[static_cast<std::size_t>(row)];
      return static_cast<std::int8_t>(s > 0.0f ? std::lround(v / s) : 0);
    };
    p.qvalues.reserve(stored.size());
    if (format == PackedFormat::kCsr) {
      for (std::int64_t r = 0; r < rows; ++r) {
        for (std::int32_t t = p.csr.row_ptr[static_cast<std::size_t>(r)];
             t < p.csr.row_ptr[static_cast<std::size_t>(r) + 1]; ++t) {
          p.qvalues.push_back(quantized(stored[static_cast<std::size_t>(t)], r));
        }
      }
    } else {
      for (std::size_t t = 0; t < stored.size(); ++t) {
        const std::int64_t row = static_cast<std::int64_t>(t) / cols;
        p.qvalues.push_back(quantized(
            stored[t], format == PackedFormat::kChannelCompact
                           ? kept[static_cast<std::size_t>(row)]
                           : row));
      }
    }
    p.qscales = std::move(scales);
    plan.packed_bytes +=
        static_cast<std::int64_t>(p.qscales.size()) * 4;  // fp32 scales

    // True int8 execution: pack the sidecar into the quantized kernel
    // layer's executable operands.
    if (options.int8_native) {
      if constexpr (requires { p.stage_offsets; }) {
        // Convs execute natively in every format: dense and channel-compact
        // through the quantized implicit-GEMM (quad panels + offset
        // corrections + per-packed-row scales), CSR through the integer
        // sparse forward, which consumes qvalues/qscales directly.
        p.int8_exec = true;
        if (format != PackedFormat::kCsr) {
          const std::int64_t exec_rows =
              cols > 0 ? static_cast<std::int64_t>(p.qvalues.size()) / cols
                       : 0;
          p.qpacked.pack(p.qvalues.data(), exec_rows, cols);
          p.qexec_scales.resize(static_cast<std::size_t>(exec_rows));
          for (std::int64_t r = 0; r < exec_rows; ++r) {
            const std::int64_t src = format == PackedFormat::kChannelCompact
                                         ? kept[static_cast<std::size_t>(r)]
                                         : r;
            p.qexec_scales[static_cast<std::size_t>(r)] =
                p.qscales[static_cast<std::size_t>(src)];
          }
          // Panels are host-side acceleration like the fp32 prepack (which
          // native layers skip), reported on the same line.
          plan.prepacked_bytes = p.qpacked.bytes();
          if (p.in_w <= 4 || p.geom.stride > 1) {
            // Very narrow planes gather faster through a precomputed
            // source-index table: their image rows are too short to amortize
            // even the padded-plane gather's per-row memcpy. Strided planes
            // take it too — their gather has no contiguous runs to memcpy.
            // Everything else uses the kernel's padded-plane staging or,
            // past its cap, the clipped run-gather (conv2d_forward_s8).
            p.qgather = build_s8_gather_index(p.in_ch, p.in_h, p.in_w, p.geom);
            plan.prepacked_bytes +=
                static_cast<std::int64_t>(p.qgather.size()) * 4;
          }
        }
      } else if (format == PackedFormat::kDense) {
        // The head executes natively only when dense; a CSR head keeps the
        // simulated float path (tiny layer, spmm already skips zeros).
        p.int8_exec = true;
        const std::int64_t rows8 = round_up4(cols) *
                                   ((rows + kNrS8 - 1) / kNrS8 * kNrS8);
        p.qslivers.assign(static_cast<std::size_t>(rows8), 0);
        pack_b_quads_s8_nt(p.qvalues.data(), rows, cols, p.qslivers.data());
        p.qcorr.resize(static_cast<std::size_t>(rows));
        for (std::int64_t r = 0; r < rows; ++r) {
          p.qcorr[static_cast<std::size_t>(r)] =
              quad_row_offset_sum(p.qvalues.data() + r * cols, cols);
        }
        plan.prepacked_bytes =
            static_cast<std::int64_t>(p.qslivers.size()) + rows * 4;
      }
    }
  }
  plan.packed_bytes += rows * 4;  // folded fp32 bias
  plans.push_back(std::move(plan));
}

/// Folds conv (+ optional BN) into a PackedConv at the given input extent.
PackedConv pack_conv(const Conv2d& conv, const BatchNorm2d* bn, bool relu,
                     std::int64_t in_h, std::int64_t in_w,
                     const CompileOptions& options,
                     std::vector<LayerPlan>& plans) {
  PackedConv p;
  p.name = base_name(conv.weight().name);
  p.geom = conv.geometry();
  p.in_ch = conv.in_channels();
  p.out_ch = conv.out_channels();
  p.in_h = in_h;
  p.in_w = in_w;
  p.out_h = p.geom.out_extent(in_h);
  p.out_w = p.geom.out_extent(in_w);
  p.relu = relu;

  const std::int64_t ckk = p.in_ch * p.geom.kernel * p.geom.kernel;
  const Tensor& wv = conv.weight().value;
  std::vector<float> w(wv.data(), wv.data() + wv.numel());
  p.bias.assign(static_cast<std::size_t>(p.out_ch), 0.0f);
  if (conv.bias() != nullptr) {
    for (std::int64_t oc = 0; oc < p.out_ch; ++oc) {
      p.bias[static_cast<std::size_t>(oc)] = conv.bias()->value[oc];
    }
  }
  if (bn != nullptr) {
    if (bn->channels() != p.out_ch) {
      throw std::invalid_argument("Engine::compile: conv/bn channel mismatch");
    }
    for (std::int64_t oc = 0; oc < p.out_ch; ++oc) {
      const float s = bn->gamma().value[oc] /
                      std::sqrt(bn->running_var()[oc] + bn->eps());
      float* row = w.data() + oc * ckk;
      for (std::int64_t c = 0; c < ckk; ++c) row[c] *= s;
      p.bias[static_cast<std::size_t>(oc)] =
          bn->beta().value[oc] +
          s * (p.bias[static_cast<std::size_t>(oc)] - bn->running_mean()[oc]);
    }
  }
  pack_weights(p, std::move(w), p.out_ch, ckk, p.out_h * p.out_w, options,
               plans, /*allow_compact=*/true);
  // Dense-style fp32 formats run the packed implicit-GEMM kernel; pay the
  // weight-panel pack here — once per compile instead of once per serve-time
  // plane call.
  if (p.format != PackedFormat::kCsr && !p.int8_exec && !p.weight.empty()) {
    const auto rows = static_cast<std::int64_t>(p.weight.size()) / ckk;
    p.prepacked.pack(p.weight.data(), rows, ckk, /*forward=*/true,
                     /*dgrad=*/false);
    // The panels stay resident next to the raw weights for the plan's
    // lifetime. They are host-side acceleration, not part of the shippable
    // encoding, so they are reported separately from packed_bytes.
    plans.back().prepacked_bytes = p.prepacked.bytes();
  }
  if (p.format == PackedFormat::kCsr) {
    p.stage_offsets = csr_stage_offsets(p.csr.col_idx, in_h, in_w, p.geom);
  }
  if (p.int8_exec) {
    // Native layers execute the integer encoding; the dequantized floats
    // are dead weight — drop them, so int8 plans are genuinely smaller
    // resident, not just on wire.
    if (p.format == PackedFormat::kCsr) {
      std::vector<float>().swap(p.csr.values);
    } else {
      std::vector<float>().swap(p.weight);
    }
  }
  return p;
}

PackedLinear pack_linear(const Linear& lin, const CompileOptions& options,
                         std::vector<LayerPlan>& plans) {
  PackedLinear p;
  p.name = base_name(lin.weight().name);
  p.in_features = lin.in_features();
  p.out_features = lin.out_features();
  const Tensor& wv = lin.weight().value;
  std::vector<float> w(wv.data(), wv.data() + wv.numel());
  p.bias.assign(static_cast<std::size_t>(p.out_features), 0.0f);
  if (lin.bias() != nullptr) {
    for (std::int64_t j = 0; j < p.out_features; ++j) {
      p.bias[static_cast<std::size_t>(j)] = lin.bias()->value[j];
    }
  }
  pack_weights(p, std::move(w), p.out_features, p.in_features, 1, options,
               plans, /*allow_compact=*/false);
  if (p.int8_exec) {
    std::vector<float>().swap(p.weight);  // the slivers are the executable
  }
  return p;
}

/// Tracks the sizing maxima a Workspace needs. The implicit-GEMM conv path
/// gathers its panels into fixed-size kernel-layer scratch, so no im2col
/// extent is planned anymore — only activation planes, the
/// channel-compact epilogue buffer and the CSR forward's scratch.
struct ScratchExtents {
  std::int64_t plane = 0, tmp = 0, csr = 0;

  void cover(const PackedConv& c) {
    plane = std::max({plane, c.in_floats(), c.out_floats()});
    tmp = std::max(tmp, c.out_floats());
    if (c.format == PackedFormat::kCsr) {
      csr = std::max(csr, csr_scratch_elems(c.in_ch, c.in_h, c.in_w, c.geom,
                                            c.int8_exec));
    }
  }
};

}  // namespace

CompiledTicket Engine::compile(const ResNet& model,
                               const CompileOptions& options) {
  CompiledTicket t;
  t.height_ = options.height;
  t.width_ = options.width;
  t.in_channels_ = model.config().in_channels;
  t.num_classes_ = model.config().num_classes;
  t.feature_dim_ = model.feature_dim();

  ScratchExtents extents;
  std::int64_t h = options.height, w = options.width, ch = t.in_channels_;
  const Conv2d* pending_conv = nullptr;
  bool stem_done = false;

  for (std::size_t i = 0; i < model.trunk_size(); ++i) {
    const Module& m = model.trunk_module(i);
    if (const auto* conv = dynamic_cast<const Conv2d*>(&m)) {
      if (pending_conv != nullptr) {
        throw std::invalid_argument(
            "Engine::compile: bare conv without batch norm");
      }
      pending_conv = conv;
    } else if (const auto* bn = dynamic_cast<const BatchNorm2d*>(&m)) {
      if (pending_conv == nullptr || stem_done) {
        throw std::invalid_argument("Engine::compile: unexpected batch norm");
      }
      if (pending_conv->in_channels() != ch) {
        throw std::invalid_argument("Engine::compile: stem channel mismatch");
      }
      t.stem_ = pack_conv(*pending_conv, bn, /*relu=*/false, h, w, options,
                          t.layers_);
      extents.cover(t.stem_);
      h = t.stem_.out_h;
      w = t.stem_.out_w;
      ch = t.stem_.out_ch;
      pending_conv = nullptr;
      stem_done = true;
    } else if (dynamic_cast<const ReLU*>(&m) != nullptr) {
      if (!stem_done || !t.blocks_.empty()) {
        throw std::invalid_argument("Engine::compile: unexpected ReLU");
      }
      t.stem_.relu = true;
    } else if (const auto* basic = dynamic_cast<const BasicBlock*>(&m)) {
      CompiledBlock b;
      b.c1 = pack_conv(basic->conv1(), &basic->bn1(), /*relu=*/true, h, w,
                       options, t.layers_);
      b.c2 = pack_conv(basic->conv2(), &basic->bn2(), /*relu=*/false,
                       b.c1.out_h, b.c1.out_w, options, t.layers_);
      if (basic->has_projection()) {
        b.down = pack_conv(*basic->down_conv(), basic->down_bn(),
                           /*relu=*/false, h, w, options, t.layers_);
      }
      extents.cover(b.c1);
      extents.cover(b.c2);
      if (b.down) extents.cover(*b.down);
      h = b.c2.out_h;
      w = b.c2.out_w;
      ch = b.c2.out_ch;
      t.blocks_.push_back(std::move(b));
    } else if (const auto* bneck = dynamic_cast<const BottleneckBlock*>(&m)) {
      CompiledBlock b;
      b.c1 = pack_conv(bneck->conv1(), &bneck->bn1(), /*relu=*/true, h, w,
                       options, t.layers_);
      b.c2 = pack_conv(bneck->conv2(), &bneck->bn2(), /*relu=*/true,
                       b.c1.out_h, b.c1.out_w, options, t.layers_);
      b.c3 = pack_conv(bneck->conv3(), &bneck->bn3(), /*relu=*/false,
                       b.c2.out_h, b.c2.out_w, options, t.layers_);
      if (bneck->has_projection()) {
        b.down = pack_conv(*bneck->down_conv(), bneck->down_bn(),
                           /*relu=*/false, h, w, options, t.layers_);
      }
      extents.cover(b.c1);
      extents.cover(b.c2);
      extents.cover(*b.c3);
      if (b.down) extents.cover(*b.down);
      h = b.c3->out_h;
      w = b.c3->out_w;
      ch = b.c3->out_ch;
      t.blocks_.push_back(std::move(b));
    } else {
      throw std::invalid_argument(
          "Engine::compile: unsupported trunk module");
    }
  }
  if (!stem_done || pending_conv != nullptr) {
    throw std::invalid_argument("Engine::compile: malformed trunk");
  }
  if (ch != t.feature_dim_) {
    throw std::invalid_argument("Engine::compile: feature width mismatch");
  }
  t.feat_h_ = h;
  t.feat_w_ = w;

  t.head_ = pack_linear(model.head(), options, t.layers_);
  extents.plane = std::max(extents.plane,
                           static_cast<std::int64_t>(t.feature_dim_));
  t.max_plane_floats_ = extents.plane;
  t.tmp_floats_ = extents.tmp;
  t.csr_scratch_elems_ = extents.csr;
  t.int8_native_ = options.int8_weights && options.int8_native;
  return t;
}

// ---- Session ----------------------------------------------------------------

Session::Session(CompiledTicket plan, int max_batch)
    : Session(std::make_shared<const CompiledTicket>(std::move(plan)),
              SessionOptions{.max_batch = max_batch}) {}

Session::Session(std::shared_ptr<const CompiledTicket> plan, int max_batch)
    : Session(std::move(plan), SessionOptions{.max_batch = max_batch}) {}

Session::Session(CompiledTicket plan, const SessionOptions& options)
    : Session(std::make_shared<const CompiledTicket>(std::move(plan)),
              options) {}

Session::Session(std::shared_ptr<const CompiledTicket> plan,
                 const SessionOptions& options)
    : plan_(std::move(plan)), options_(options) {
  if (options_.max_batch <= 0) {
    throw std::invalid_argument(
        "SessionOptions: max_batch must be > 0, got " +
        std::to_string(options_.max_batch));
  }
  if (plan_ == nullptr) {
    throw std::invalid_argument("Session: null plan");
  }
  // One workspace up front: a single-threaded caller never allocates again.
  idle_.push_back(std::make_unique<Workspace>(*plan_, options_.max_batch));
}

std::unique_ptr<Workspace> Session::acquire() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!idle_.empty()) {
      std::unique_ptr<Workspace> ws = std::move(idle_.back());
      idle_.pop_back();
      return ws;
    }
  }
  // Pool exhausted: a new concurrency high-water mark. Allocate outside the
  // lock; the workspace joins the pool on release.
  return std::make_unique<Workspace>(*plan_, options_.max_batch);
}

void Session::release(std::unique_ptr<Workspace> ws) {
  std::lock_guard<std::mutex> lock(mutex_);
  idle_.push_back(std::move(ws));
}

class Session::WorkspaceLease {
 public:
  explicit WorkspaceLease(Session& session)
      : session_(session), ws_(session.acquire()) {}
  ~WorkspaceLease() { session_.release(std::move(ws_)); }

  WorkspaceLease(const WorkspaceLease&) = delete;
  WorkspaceLease& operator=(const WorkspaceLease&) = delete;

  Workspace& get() { return *ws_; }

 private:
  Session& session_;
  std::unique_ptr<Workspace> ws_;
};

RT_HOT void Session::run_rows(const float* x, std::int64_t n, float* logits) {
  // Steady-state allocation-free: the lease recycles pooled workspaces and
  // only Session::acquire allocates, on a concurrency high-water mark.
  WorkspaceLease lease(*this);
  plan_->run(x, n, logits, lease.get());
}

void Session::run_chunk(const Tensor& x, std::int64_t begin, std::int64_t end,
                        Tensor& logits) {
  const std::int64_t plane =
      plan_->in_channels() * plan_->height() * plan_->width();
  run_rows(x.data() + begin * plane, end - begin,
           logits.data() + begin * plan_->num_classes());
}

Tensor Session::predict(const Tensor& x) {
  if (!options_.shared_scheduler) {
    WorkspaceLease lease(*this);
    return plan_->predict(x, lease.get());
  }
  // Shared-scheduler serving: every max_batch chunk becomes one stealable
  // task. Concurrent predict() calls from any number of threads feed the
  // same scheduler, which interleaves their chunks across one set of
  // workers — cooperative machine filling instead of per-call serialization.
  // Chunk boundaries are fixed by max_batch and each chunk runs the serial
  // executor on its own workspace, so the logits are bitwise identical to
  // serial mode.
  plan_->check_input(x);
  const std::int64_t n = x.dim(0);
  Tensor logits({n, plan_->num_classes()});
  const std::int64_t chunk = options_.max_batch;
  const std::int64_t chunks = (n + chunk - 1) / chunk;
  Scheduler::current().parallel_for(
      chunks,
      [&](std::int64_t c0, std::int64_t c1) {
        for (std::int64_t c = c0; c < c1; ++c) {
          const std::int64_t begin = c * chunk;
          run_chunk(x, begin, std::min<std::int64_t>(n, begin + chunk),
                    logits);
        }
      },
      /*grain=*/1);
  return logits;
}

Tensor Session::predict_probabilities(const Tensor& x) {
  return softmax(predict(x));
}

std::vector<int> Session::classify(const Tensor& x) {
  return argmax_rows(predict(x));
}

}  // namespace rt
