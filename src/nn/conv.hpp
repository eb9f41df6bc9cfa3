#pragma once
// 2-D convolution (NCHW) with full backward, running on the fused
// implicit-GEMM kernels in linalg/conv.hpp.
//
// Forward and backward parallelize over the batch dimension; each sample
// runs the plane kernels, so all convolution arithmetic lives in the linalg
// kernel layer. No per-sample column buffer is materialized on the training
// path, and the weight panels are pre-packed once per batch
// (linalg::PackedWeights) instead of once per sample. When the batch
// has fewer samples than the scheduler has lanes, the kernels additionally
// split their output-column tiles into stealable subtasks, so batch-level
// and tile-level parallelism compose instead of leaving lanes idle.

#include <cstdint>
#include <memory>
#include <string>

#include "linalg/conv.hpp"
#include "nn/module.hpp"

namespace rt {

/// Convolution layer. Weight layout is (out_ch, in_ch*k*k); column index c
/// decodes as in_ch = c/(k*k), kernel row = (c%(k*k))/k, kernel col = c%k.
/// He-normal initialized. Bias optional (ResNet convs are bias-free).
class Conv2d : public Module {
 public:
  Conv2d(std::int64_t in_channels, std::int64_t out_channels,
         std::int64_t kernel, std::int64_t stride, std::int64_t padding,
         bool with_bias, Rng& rng, std::string name);

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  void collect_parameters(std::vector<Parameter*>& out) override;

  Parameter& weight() { return weight_; }
  const Parameter& weight() const { return weight_; }
  Parameter* bias() { return has_bias_ ? &bias_ : nullptr; }
  const Parameter* bias() const { return has_bias_ ? &bias_ : nullptr; }
  std::int64_t in_channels() const { return in_channels_; }
  std::int64_t out_channels() const { return out_channels_; }
  const ConvGeometry& geometry() const { return geom_; }

  /// Multiply-accumulate count for one sample at the given input size.
  std::int64_t flops_per_sample(std::int64_t h, std::int64_t w) const;

 private:
  std::int64_t in_channels_;
  std::int64_t out_channels_;
  ConvGeometry geom_;
  bool has_bias_;
  Parameter weight_;
  Parameter bias_;
  Tensor cached_input_;
  /// Batch-shared weight panels, re-packed per forward/backward call (the
  /// weights change every optimizer step) but reused across every sample in
  /// the batch. Member rather than local so the buffers persist between
  /// steps instead of reallocating.
  PackedWeights packed_weights_;
};

}  // namespace rt
