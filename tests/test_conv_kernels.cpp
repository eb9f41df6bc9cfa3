// Conformance tests for the fp32 convolution kernels in linalg/conv.hpp:
// forward, input-gradient and weight-gradient against a direct-loop oracle
// (accumulating in double) across kernel x stride x padding x odd-extent
// geometries, with dense and masked weights; the forward's staged
// padded-plane gather against its clipped gather, bit for bit; plus a
// finite-difference gradcheck on a masked Conv2d layer.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "linalg/conv.hpp"
#include "nn/conv.hpp"

namespace rt {
namespace {

struct Case {
  std::int64_t c_in, out_ch, h, w;
  ConvGeometry g;
};

std::vector<float> random_vec(std::int64_t count, Rng& rng,
                              float zero_fraction) {
  std::vector<float> out(static_cast<std::size_t>(count));
  for (float& v : out) {
    v = rng.uniform(0.0f, 1.0f) < zero_fraction ? 0.0f
                                                : rng.uniform(-1.0f, 1.0f);
  }
  return out;
}

/// Calls f(oc, p, y_idx, x_idx) for every in-bounds (output pixel, weight
/// column) pair: weight (oc, p) multiplies input x_idx into output y_idx.
/// Taps that land in the zero padding are skipped.
template <typename F>
void for_each_tap(const Case& c, const F& f) {
  const std::int64_t k = c.g.kernel;
  const std::int64_t oh = c.g.out_extent(c.h);
  const std::int64_t ow = c.g.out_extent(c.w);
  for (std::int64_t oc = 0; oc < c.out_ch; ++oc) {
    for (std::int64_t oi = 0; oi < oh; ++oi) {
      for (std::int64_t oj = 0; oj < ow; ++oj) {
        for (std::int64_t ci = 0; ci < c.c_in; ++ci) {
          for (std::int64_t ki = 0; ki < k; ++ki) {
            const std::int64_t ii = oi * c.g.stride - c.g.padding + ki;
            if (ii < 0 || ii >= c.h) continue;
            for (std::int64_t kj = 0; kj < k; ++kj) {
              const std::int64_t jj = oj * c.g.stride - c.g.padding + kj;
              if (jj < 0 || jj >= c.w) continue;
              f(oc, (ci * k + ki) * k + kj, (oc * oh + oi) * ow + oj,
                (ci * c.h + ii) * c.w + jj);
            }
          }
        }
      }
    }
  }
}

std::size_t at(std::int64_t i) { return static_cast<std::size_t>(i); }

/// y = conv(x, w) + bias, optionally clamped at zero.
std::vector<float> ref_forward(const Case& c, const std::vector<float>& x,
                               const std::vector<float>& w,
                               const std::vector<float>& bias, bool relu) {
  const std::int64_t ckk = c.c_in * c.g.kernel * c.g.kernel;
  const std::int64_t ohw = c.g.out_extent(c.h) * c.g.out_extent(c.w);
  std::vector<double> acc(at(c.out_ch * ohw), 0.0);
  for_each_tap(c, [&](std::int64_t oc, std::int64_t p, std::int64_t yi,
                      std::int64_t xi) {
    acc[at(yi)] += static_cast<double>(w[at(oc * ckk + p)]) * x[at(xi)];
  });
  std::vector<float> y(acc.size());
  for (std::size_t i = 0; i < y.size(); ++i) {
    const double v = acc[i] + bias[i / at(ohw)];
    y[i] = static_cast<float>(relu ? std::max(v, 0.0) : v);
  }
  return y;
}

/// dx = prior + conv^T(gout, w).
std::vector<float> ref_dgrad(const Case& c, const std::vector<float>& w,
                             const std::vector<float>& gout,
                             const std::vector<float>& prior) {
  const std::int64_t ckk = c.c_in * c.g.kernel * c.g.kernel;
  std::vector<double> acc(prior.begin(), prior.end());
  for_each_tap(c, [&](std::int64_t oc, std::int64_t p, std::int64_t yi,
                      std::int64_t xi) {
    acc[at(xi)] += static_cast<double>(w[at(oc * ckk + p)]) * gout[at(yi)];
  });
  return std::vector<float>(acc.begin(), acc.end());
}

/// dw = prior + gout * col(x)^T.
std::vector<float> ref_wgrad(const Case& c, const std::vector<float>& x,
                             const std::vector<float>& gout,
                             const std::vector<float>& prior) {
  const std::int64_t ckk = c.c_in * c.g.kernel * c.g.kernel;
  std::vector<double> acc(prior.begin(), prior.end());
  for_each_tap(c, [&](std::int64_t oc, std::int64_t p, std::int64_t yi,
                      std::int64_t xi) {
    acc[at(oc * ckk + p)] += static_cast<double>(gout[at(yi)]) * x[at(xi)];
  });
  return std::vector<float>(acc.begin(), acc.end());
}

void expect_near(const std::vector<float>& got, const std::vector<float>& want,
                 const char* what, const Case& c, float zero_fraction) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    const float scale = std::max(1.0f, std::fabs(want[i]));
    ASSERT_NEAR(got[i], want[i], 1e-4f * scale)
        << what << " k=" << c.g.kernel << " s=" << c.g.stride
        << " p=" << c.g.padding << " c_in=" << c.c_in << " out=" << c.out_ch
        << " h=" << c.h << " w=" << c.w << " zero_fraction=" << zero_fraction
        << " index=" << i;
  }
}

/// Runs forward/dgrad/wgrad on one random problem, whose weights are zeroed
/// at `weight_zero_fraction`, and demands agreement with the direct-loop
/// oracle at <= 1e-4.
void check_case(const Case& c, float weight_zero_fraction, Rng& rng) {
  const std::int64_t oh = c.g.out_extent(c.h);
  const std::int64_t ow = c.g.out_extent(c.w);
  ASSERT_GT(oh, 0);
  ASSERT_GT(ow, 0);
  const std::int64_t ckk = c.c_in * c.g.kernel * c.g.kernel;
  const std::vector<float> x = random_vec(c.c_in * c.h * c.w, rng, 0.0f);
  const std::vector<float> w =
      random_vec(c.out_ch * ckk, rng, weight_zero_fraction);
  const std::vector<float> gout = random_vec(c.out_ch * oh * ow, rng, 0.0f);
  const std::vector<float> bias = random_vec(c.out_ch, rng, 0.0f);
  // dgrad/wgrad accumulate: start from a nonzero prior.
  const std::vector<float> dx0 = random_vec(c.c_in * c.h * c.w, rng, 0.0f);
  const std::vector<float> dw0 = random_vec(c.out_ch * ckk, rng, 0.0f);

  for (const bool relu : {false, true}) {
    std::vector<float> y(static_cast<std::size_t>(c.out_ch * oh * ow), -3.0f);
    conv2d_forward_plane(x.data(), c.c_in, c.h, c.w, c.g, w.data(), c.out_ch,
                         y.data(), bias.data(), relu);
    expect_near(y, ref_forward(c, x, w, bias, relu),
                relu ? "forward+relu" : "forward", c, weight_zero_fraction);
  }
  std::vector<float> dx = dx0;
  conv2d_dgrad_plane(w.data(), c.out_ch, gout.data(), c.c_in, c.h, c.w, c.g,
                     dx.data());
  expect_near(dx, ref_dgrad(c, w, gout, dx0), "dgrad", c,
              weight_zero_fraction);

  std::vector<float> dw = dw0;
  conv2d_wgrad_plane(gout.data(), x.data(), c.c_in, c.h, c.w, c.g, c.out_ch,
                     dw.data());
  expect_near(dw, ref_wgrad(c, x, gout, dw0), "wgrad", c,
              weight_zero_fraction);
}

TEST(ConvKernels, MatchDirectLoopAcrossGeometries) {
  Rng rng(0xC0DE);
  // kernel x stride x padding sweep at deliberately odd extents, plus
  // channel counts that leave panel tails in every blocking dimension.
  for (const std::int64_t kernel : {1, 3, 7}) {
    for (const std::int64_t stride : {1, 2}) {
      for (const std::int64_t padding : {0, 1, 3}) {
        const Case c{5, 9, 13, 11, ConvGeometry{kernel, stride, padding}};
        if (c.g.out_extent(c.h) <= 0 || c.g.out_extent(c.w) <= 0) continue;
        check_case(c, 0.0f, rng);
      }
    }
  }
}

TEST(ConvKernels, MatchDirectLoopAtMicroResNetShapes) {
  Rng rng(0xB16);
  // Dense weights and a 90%-masked ticket's weights run the same packed
  // forward and dgrad at every shape.
  for (const float zero_fraction : {0.0f, 0.9f}) {
    check_case({3, 16, 16, 16, ConvGeometry{3, 1, 1}}, zero_fraction, rng);
    check_case({16, 32, 16, 16, ConvGeometry{3, 2, 1}}, zero_fraction, rng);
    check_case({32, 32, 1, 1, ConvGeometry{1, 1, 0}}, zero_fraction, rng);
    // Wide-plane stem shape: ohw crosses several kNc panels.
    check_case({3, 8, 33, 35, ConvGeometry{3, 1, 1}}, zero_fraction, rng);
  }
}

/// x (c_in, h, w) copied into the centre of a zero-filled
/// (c_in, h+2p, w+2p) plane.
std::vector<float> explicitly_zero_padded(const std::vector<float>& x,
                                          std::int64_t c_in, std::int64_t h,
                                          std::int64_t w, std::int64_t p) {
  const std::int64_t ph = h + 2 * p, pw = w + 2 * p;
  std::vector<float> out(at(c_in * ph * pw), 0.0f);
  for (std::int64_t c = 0; c < c_in; ++c) {
    for (std::int64_t i = 0; i < h; ++i) {
      std::copy_n(x.begin() + (c * h + i) * w, w,
                  out.begin() + (c * ph + p + i) * pw + p);
    }
  }
  return out;
}

TEST(ConvKernels, PaddedForwardMatchesExplicitlyPaddedInputBitwise) {
  // A padded forward gathers from its own zero-bordered staging copy; the
  // same conv with pad 0 over an explicitly zero-padded input takes the
  // clipped gather. Both pack the same B values in the same k order, so
  // the outputs must agree bit for bit, with and without bias+ReLU.
  Rng rng(0x9AD);
  for (const std::int64_t kernel : {1, 3, 5, 7}) {
    for (const std::int64_t stride : {1, 2}) {
      for (const std::int64_t pad : {1, 2, 3}) {
        // Odd extents; at stride 1 the second spans several kNc tiles.
        for (const auto& [h, w] : {std::pair<std::int64_t, std::int64_t>{
                                       13, 11},
                                   {21, 19}}) {
          const Case c{5, 9, h, w, ConvGeometry{kernel, stride, pad}};
          const std::int64_t ckk = c.c_in * kernel * kernel;
          const std::int64_t ohw = c.g.out_extent(h) * c.g.out_extent(w);
          const std::vector<float> x = random_vec(c.c_in * h * w, rng, 0.0f);
          const std::vector<float> xp =
              explicitly_zero_padded(x, c.c_in, h, w, pad);
          const std::vector<float> wt = random_vec(c.out_ch * ckk, rng, 0.0f);
          const std::vector<float> bias = random_vec(c.out_ch, rng, 0.0f);
          const ConvGeometry unpadded{kernel, stride, 0};
          for (const bool fused : {false, true}) {
            const float* b = fused ? bias.data() : nullptr;
            std::vector<float> y(at(c.out_ch * ohw), -3.0f);
            std::vector<float> y_ref(y.size(), 5.0f);
            conv2d_forward_plane(x.data(), c.c_in, h, w, c.g, wt.data(),
                                 c.out_ch, y.data(), b, fused);
            conv2d_forward_plane(xp.data(), c.c_in, h + 2 * pad, w + 2 * pad,
                                 unpadded, wt.data(), c.out_ch, y_ref.data(),
                                 b, fused);
            EXPECT_EQ(std::memcmp(y.data(), y_ref.data(),
                                  y.size() * sizeof(float)),
                      0)
                << "k=" << kernel << " s=" << stride << " p=" << pad
                << " h=" << h << " w=" << w << " bias+relu=" << fused;
          }
        }
      }
    }
  }
  // A plane past the staging cap (64 x 35 x 35 floats padded, > 256 KiB)
  // keeps the clipped gather; it must still match the oracle.
  check_case({64, 6, 33, 33, ConvGeometry{3, 1, 1}}, 0.0f, rng);
}

TEST(ConvKernels, MatchDirectLoopOnMaskedWeights) {
  // >= 85% zeroed weights, a pruned ticket's regime: the packed kernels
  // multiply the exact zeros like any other weight and must still agree.
  Rng rng(0x7A9);
  for (const std::int64_t stride : {1, 2}) {
    const Case c{6, 10, 15, 13, ConvGeometry{3, stride, 1}};
    check_case(c, 0.9f, rng);
  }
  check_case({4, 12, 9, 9, ConvGeometry{7, 1, 3}}, 0.85f, rng);
}

TEST(ConvKernels, GradcheckMaskedConv2d) {
  // Finite-difference gradcheck of the full layer (batch 2, stride 2,
  // padding 1) with a 60%-masked weight: the analytic dX and dW from the
  // fused kernels must match central differences of the scalar loss
  // L = sum(y * probe).
  Rng rng(0x6AD);
  const std::int64_t n = 2, c_in = 3, h = 7, w = 5, out_ch = 4;
  Conv2d conv(c_in, out_ch, /*kernel=*/3, /*stride=*/2, /*padding=*/1,
              /*with_bias=*/true, rng, "gc");
  Tensor mask({out_ch, c_in * 9});
  for (std::int64_t i = 0; i < mask.numel(); ++i) {
    mask[i] = rng.uniform(0.0f, 1.0f) < 0.6f ? 0.0f : 1.0f;
  }
  conv.weight().set_mask(mask);

  Tensor x = Tensor::randn({n, c_in, h, w}, rng);
  const Tensor y0 = conv.forward(x);
  Tensor probe = Tensor::randn({y0.dim(0), y0.dim(1), y0.dim(2), y0.dim(3)},
                               rng);
  conv.zero_grad();
  const Tensor dx = conv.backward(probe);

  const auto loss = [&](const Tensor& in) {
    Tensor y = conv.forward(in);
    double acc = 0.0;
    for (std::int64_t i = 0; i < y.numel(); ++i) {
      acc += static_cast<double>(y[i]) * static_cast<double>(probe[i]);
    }
    return acc;
  };

  const float eps = 1e-2f;
  Rng pick(3);
  for (int trial = 0; trial < 24; ++trial) {
    const std::int64_t i = pick.uniform_int(
        0, static_cast<int>(x.numel()) - 1);
    Tensor xp = x;
    xp[i] += eps;
    Tensor xm = x;
    xm[i] -= eps;
    const double want = (loss(xp) - loss(xm)) / (2.0 * eps);
    EXPECT_NEAR(dx[i], want, 1e-2 * std::max(1.0, std::fabs(want)))
        << "dX index " << i;
  }
  // Weight gradient: compare against central differences on unmasked
  // entries (masked entries' grads are zeroed by the optimizer contract,
  // not by backward).
  conv.forward(x);
  for (int trial = 0; trial < 24; ++trial) {
    const std::int64_t i = pick.uniform_int(
        0, static_cast<int>(conv.weight().value.numel()) - 1);
    if (mask[i] == 0.0f) continue;
    Tensor& wv = conv.weight().value;
    const float orig = wv[i];
    wv[i] = orig + eps;
    const double lp = loss(x);
    wv[i] = orig - eps;
    const double lm = loss(x);
    wv[i] = orig;
    const double want = (lp - lm) / (2.0 * eps);
    EXPECT_NEAR(conv.weight().grad[i], want,
                1e-2 * std::max(1.0, std::fabs(want)))
        << "dW index " << i;
  }
}

}  // namespace
}  // namespace rt
