#include "nn/conv.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "common/scheduler.hpp"

namespace rt {

Conv2d::Conv2d(std::int64_t in_channels, std::int64_t out_channels,
               std::int64_t kernel, std::int64_t stride, std::int64_t padding,
               bool with_bias, Rng& rng, std::string name)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      geom_{kernel, stride, padding},
      has_bias_(with_bias) {
  const std::int64_t fan_in = in_channels * kernel * kernel;
  const float stddev = std::sqrt(2.0f / static_cast<float>(fan_in));
  weight_.name = name + ".weight";
  weight_.kind = ParamKind::kConvWeight;
  weight_.conv_in_channels = in_channels;
  weight_.conv_kernel = kernel;
  weight_.value = Tensor::randn({out_channels, fan_in}, rng, stddev);
  weight_.grad = Tensor({out_channels, fan_in});
  if (has_bias_) {
    bias_.name = name + ".bias";
    bias_.kind = ParamKind::kBias;
    bias_.value = Tensor({out_channels});
    bias_.grad = Tensor({out_channels});
  }
}

Tensor Conv2d::forward(const Tensor& x) {
  if (x.ndim() != 4 || x.dim(1) != in_channels_) {
    throw std::invalid_argument("Conv2d: bad input shape " + x.shape_str());
  }
  cached_input_ = x;
  const std::int64_t n = x.dim(0);
  const std::int64_t h = x.dim(2);
  const std::int64_t w = x.dim(3);
  const std::int64_t oh = geom_.out_extent(h);
  const std::int64_t ow = geom_.out_extent(w);
  Tensor y({n, out_channels_, oh, ow});
  const float* wd = weight_.value.data();
  const float* xd = x.data();
  const float* bd = has_bias_ ? bias_.value.data() : nullptr;
  float* yd = y.data();
  const std::int64_t in_plane = in_channels_ * h * w;
  const std::int64_t out_plane = out_channels_ * oh * ow;

  // The weight is shared across the batch: pack its panels once instead of
  // once per sample.
  packed_weights_.pack(wd, out_channels_,
                       in_channels_ * geom_.kernel * geom_.kernel,
                       /*forward=*/true, /*dgrad=*/false);
  ConvKernelOpts kopts;
  kopts.packed_weights = &packed_weights_;
  // Batch-level tasks fill the machine when n >= lanes; below that, let the
  // kernels split their output tiles so the idle lanes steal intra-plane
  // work (bitwise-identical either way).
  kopts.parallel_tiles = n < Scheduler::current().num_threads();

  parallel_for(n, [&](std::int64_t begin, std::int64_t end) {
    for (std::int64_t i = begin; i < end; ++i) {
      conv2d_forward_plane(xd + i * in_plane, in_channels_, h, w, geom_, wd,
                           out_channels_, yd + i * out_plane, bd,
                           /*relu=*/false, kopts);
    }
  });
  return y;
}

Tensor Conv2d::backward(const Tensor& grad_out) {
  const Tensor& x = cached_input_;
  if (x.empty()) throw std::logic_error("Conv2d::backward before forward");
  const std::int64_t n = x.dim(0);
  const std::int64_t h = x.dim(2);
  const std::int64_t w = x.dim(3);
  const std::int64_t oh = geom_.out_extent(h);
  const std::int64_t ow = geom_.out_extent(w);
  const std::int64_t ohw = oh * ow;
  const std::int64_t ckk = in_channels_ * geom_.kernel * geom_.kernel;
  const std::int64_t in_plane = in_channels_ * h * w;

  Tensor dx({n, in_channels_, h, w});
  const float* wd = weight_.value.data();
  const float* gd = grad_out.data();
  const float* xd = x.data();

  // dgrad consumes W^T panels; pre-pack them once for the whole batch.
  packed_weights_.pack(wd, out_channels_, ckk, /*forward=*/false,
                       /*dgrad=*/true);
  ConvKernelOpts kopts;
  kopts.packed_weights = &packed_weights_;
  kopts.parallel_tiles = n < Scheduler::current().num_threads();

  // Weight-gradient accumulation: each slot owns a contiguous sample range
  // and a private partial, so no mutex serializes the workers. The slot
  // count depends on the batch alone, never on the lane count, so every
  // float sum — and the trained weights — come out bitwise the same at any
  // RT_THREADS. kWgradSlots = 8 keeps 8 lanes busy while bounding the
  // partials' memory at 8 copies of the weight.
  constexpr std::int64_t kWgradSlots = 8;
  const std::int64_t slots = std::min(kWgradSlots, n);
  std::vector<std::vector<float>> dw_part(static_cast<std::size_t>(slots));
  std::vector<std::vector<float>> db_part(
      has_bias_ ? static_cast<std::size_t>(slots) : 0u);

  parallel_for(slots, [&](std::int64_t s0, std::int64_t s1) {
    for (std::int64_t s = s0; s < s1; ++s) {
      std::vector<float>& dw_local = dw_part[static_cast<std::size_t>(s)];
      dw_local.assign(static_cast<std::size_t>(out_channels_ * ckk), 0.0f);
      if (has_bias_) {
        db_part[static_cast<std::size_t>(s)].assign(
            static_cast<std::size_t>(out_channels_), 0.0f);
      }
      const std::int64_t begin = s * n / slots;
      const std::int64_t end = (s + 1) * n / slots;
      for (std::int64_t i = begin; i < end; ++i) {
        const float* gi = gd + i * out_channels_ * ohw;
        // dW += gout_i * col(x_i)^T, fused — no im2col materialization.
        conv2d_wgrad_plane(gi, xd + i * in_plane, in_channels_, h, w, geom_,
                           out_channels_, dw_local.data(), kopts);
        // dx_i += W^T * gout_i, computed in tiles scattered while cache-hot.
        conv2d_dgrad_plane(wd, out_channels_, gi, in_channels_, h, w, geom_,
                           dx.data() + i * in_plane, kopts);
        if (has_bias_) {
          float* db_local = db_part[static_cast<std::size_t>(s)].data();
          for (std::int64_t oc = 0; oc < out_channels_; ++oc) {
            const float* grow = gi + oc * ohw;
            float acc = 0.0f;
            for (std::int64_t j = 0; j < ohw; ++j) acc += grow[j];
            db_local[oc] += acc;
          }
        }
      }
    }
  });

  // Fold the partials into the parameter gradients in slot order,
  // element-parallel: each element's sum order is fixed by the slot index.
  const auto fold = [slots](const std::vector<std::vector<float>>& parts,
                            float* grad, std::int64_t j0, std::int64_t j1) {
    for (std::int64_t j = j0; j < j1; ++j) {
      const auto e = static_cast<std::size_t>(j);
      float sum = parts[0][e];
      for (std::int64_t s = 1; s < slots; ++s) {
        sum += parts[static_cast<std::size_t>(s)][e];
      }
      grad[j] += sum;
    }
  };
  parallel_for(out_channels_ * ckk, [&](std::int64_t j0, std::int64_t j1) {
    fold(dw_part, weight_.grad.data(), j0, j1);
  });
  if (has_bias_) fold(db_part, bias_.grad.data(), 0, out_channels_);
  return dx;
}

void Conv2d::collect_parameters(std::vector<Parameter*>& out) {
  out.push_back(&weight_);
  if (has_bias_) out.push_back(&bias_);
}

std::int64_t Conv2d::flops_per_sample(std::int64_t h, std::int64_t w) const {
  const std::int64_t oh = geom_.out_extent(h);
  const std::int64_t ow = geom_.out_extent(w);
  return 2 * out_channels_ * in_channels_ * geom_.kernel * geom_.kernel * oh *
         ow;
}

}  // namespace rt
