// Accuracy guards for the true-int8 execution layer (linalg/gemm_s8,
// linalg/conv s8 paths, engine int8-native plans):
//
//  - kernel-level parity against exact integer references at awkward extents
//    (the int32 accumulator is exact, so the raw sums must match EXACTLY;
//    the float requant is one expression per output and is compared at float
//    rounding tolerance — FMA contraction may associate it differently),
//  - the three gather strategies (clipped runs, padded plane, index table)
//    must agree bitwise, and a batch must equal its n = 1 calls bitwise,
//  - end-to-end: native int8 vs the simulated-PTQ reference within a
//    documented tolerance on element- and channel-pruned (channel-compact)
//    tickets, bitwise determinism across runs, and <= 1% top-1
//    delta against fp32 serving for the dense and 90%-sparse micro-r18
//    tickets.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "data/synth.hpp"
#include "engine/engine.hpp"
#include "linalg/conv.hpp"
#include "linalg/gemm_s8.hpp"
#include "linalg/microkernel_s8.hpp"
#include "models/resnet.hpp"
#include "prune/omp.hpp"
#include "train/loop.hpp"

namespace rt {
namespace {

std::vector<std::int8_t> random_s8(std::int64_t count, Rng& rng,
                                   float zero_fraction) {
  std::vector<std::int8_t> out(static_cast<std::size_t>(count));
  for (auto& v : out) {
    v = rng.uniform(0.0f, 1.0f) < zero_fraction
            ? std::int8_t{0}
            : static_cast<std::int8_t>(rng.uniform_int(-127, 127));
  }
  return out;
}

std::vector<std::uint8_t> random_u8(std::int64_t count, Rng& rng) {
  std::vector<std::uint8_t> out(static_cast<std::size_t>(count));
  for (auto& v : out) {
    v = static_cast<std::uint8_t>(128 + rng.uniform_int(-127, 127));
  }
  return out;
}

/// The requant expression the kernels implement, spelled exactly once here.
float requant_ref(std::int32_t acc, std::int32_t corr, float sx, float sw,
                  float bias, bool relu) {
  float y = static_cast<float>(acc - corr) * (sx * sw) + bias;
  if (relu && y < 0.0f) y = 0.0f;
  return y;
}

/// Float comparison for requantized outputs: the kernel may contract the
/// scale multiply and bias add into an FMA, so demand agreement only to a
/// few ULP of the reference magnitude.
void expect_requant_near(float got, float want, const char* what,
                         std::int64_t index) {
  const float tol = 1e-5f * std::max(1.0f, std::fabs(want));
  ASSERT_NEAR(got, want, tol) << what << " index=" << index;
}

TEST(QuantGemm, NnMatchesIntegerReferenceAtAwkwardExtents) {
  Rng rng(7);
  // Extents straddle the 8x16 tile and quad-of-4 k grouping boundaries.
  const struct { std::int64_t m, n, k; float zf; } cases[] = {
      {1, 1, 1, 0.0f},   {3, 5, 2, 0.0f},   {8, 16, 4, 0.0f},
      {9, 17, 5, 0.0f},  {24, 33, 70, 0.0f}, {13, 40, 129, 0.9f},
  };
  for (const auto& c : cases) {
    const auto qa = random_s8(c.m * c.k, rng, c.zf);
    const auto qb = random_u8(c.k * c.n, rng);
    PackedS8 packed;
    packed.pack(qa.data(), c.m, c.k);
    std::vector<float> scales(static_cast<std::size_t>(c.m));
    std::vector<float> bias(static_cast<std::size_t>(c.m));
    for (auto& s : scales) s = rng.uniform(0.001f, 0.02f);
    for (auto& b : bias) b = rng.uniform(-1.0f, 1.0f);
    const float sx = 0.011f;

    S8Epilogue ep;
    ep.scales = scales.data();
    ep.act_scale = sx;
    ep.bias = bias.data();
    ep.relu = true;
    float amax = 0.0f;
    ep.amax = &amax;
    std::vector<std::int32_t> acc(static_cast<std::size_t>(c.m * c.n));
    std::vector<float> got(static_cast<std::size_t>(c.m * c.n));
    gemm_s8_nn(c.m, c.n, c.k, packed, qb.data(), acc.data(), got.data(), ep);

    float ref_amax = 0.0f;
    for (std::int64_t i = 0; i < c.m; ++i) {
      for (std::int64_t j = 0; j < c.n; ++j) {
        // Exact integer dot product of the SIGNED operands — the u8 offset
        // and its packed correction must cancel perfectly.
        std::int64_t sum = 0;
        for (std::int64_t p = 0; p < c.k; ++p) {
          const int xa = qa[static_cast<std::size_t>(i * c.k + p)];
          const int xb =
              static_cast<int>(qb[static_cast<std::size_t>(p * c.n + j)]) -
              128;
          sum += xa * xb;
        }
        const float want = requant_ref(
            static_cast<std::int32_t>(sum), 0, sx,
            scales[static_cast<std::size_t>(i)],
            bias[static_cast<std::size_t>(i)], true);
        expect_requant_near(got[static_cast<std::size_t>(i * c.n + j)], want,
                            "gemm_s8_nn", i * c.n + j);
        ref_amax = std::max(ref_amax, std::fabs(want));
      }
    }
    EXPECT_NEAR(amax, ref_amax, 1e-5f * std::max(1.0f, ref_amax));
  }
}

TEST(QuantGemm, NtHeadShapeMatchesIntegerReference) {
  Rng rng(11);
  const std::int64_t m = 5, n = 13, k = 70;
  const std::int64_t k4 = round_up4(k);
  const auto qw = random_s8(n * k, rng, 0.0f);
  auto qx = random_u8(m * k4, rng);
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t p = k; p < k4; ++p) {
      qx[static_cast<std::size_t>(i * k4 + p)] = 128;  // quad pad = zero
    }
  }
  std::vector<std::int8_t> slivers(
      static_cast<std::size_t>((n + kNrS8 - 1) / kNrS8 * kNrS8 * k4));
  pack_b_quads_s8_nt(qw.data(), n, k, slivers.data());

  std::vector<float> scales(static_cast<std::size_t>(n));
  std::vector<float> bias(static_cast<std::size_t>(n));
  std::vector<std::int32_t> corr(static_cast<std::size_t>(n));
  for (auto& s : scales) s = rng.uniform(0.001f, 0.02f);
  for (auto& b : bias) b = rng.uniform(-1.0f, 1.0f);
  for (std::int64_t j = 0; j < n; ++j) {
    std::int32_t sum = 0;
    for (std::int64_t p = 0; p < k; ++p) {
      sum += qw[static_cast<std::size_t>(j * k + p)];
    }
    corr[static_cast<std::size_t>(j)] = 128 * sum;
  }
  const float sx = 0.013f;
  S8Epilogue ep;
  ep.scales = scales.data();
  ep.act_scale = sx;
  ep.corr = corr.data();
  ep.bias = bias.data();

  std::vector<std::int32_t> acc(static_cast<std::size_t>(m * n));
  std::vector<float> got(static_cast<std::size_t>(m * n));
  gemm_s8_nt(m, n, k, qx.data(), k4, slivers.data(), acc.data(), got.data(),
             ep);

  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      std::int64_t sum = 0;
      for (std::int64_t p = 0; p < k; ++p) {
        sum += (static_cast<int>(qx[static_cast<std::size_t>(i * k4 + p)]) -
                128) *
               static_cast<int>(qw[static_cast<std::size_t>(j * k + p)]);
      }
      const float want = requant_ref(static_cast<std::int32_t>(sum), 0, sx,
                                     scales[static_cast<std::size_t>(j)],
                                     bias[static_cast<std::size_t>(j)],
                                     false);
      expect_requant_near(got[static_cast<std::size_t>(i * n + j)], want,
                          "gemm_s8_nt", i * n + j);
    }
  }
}

/// Integer im2col reference for the s8 conv: exact signed accumulation,
/// then the shared requant expression.
std::vector<float> conv_s8_reference(const std::vector<std::uint8_t>& xq,
                                     std::int64_t c_in, std::int64_t h,
                                     std::int64_t w, const ConvGeometry& g,
                                     const std::vector<std::int8_t>& qw,
                                     std::int64_t out_ch,
                                     const std::vector<float>& scales,
                                     float sx, const std::vector<float>& bias,
                                     bool relu) {
  const std::int64_t oh = g.out_extent(h), ow = g.out_extent(w);
  const std::int64_t ckk = c_in * g.kernel * g.kernel;
  std::vector<float> y(static_cast<std::size_t>(out_ch * oh * ow));
  for (std::int64_t r = 0; r < out_ch; ++r) {
    for (std::int64_t oi = 0; oi < oh; ++oi) {
      for (std::int64_t oj = 0; oj < ow; ++oj) {
        std::int64_t sum = 0;
        for (std::int64_t p = 0; p < ckk; ++p) {
          const std::int64_t c = p / (g.kernel * g.kernel);
          const std::int64_t ki = (p / g.kernel) % g.kernel;
          const std::int64_t kj = p % g.kernel;
          const std::int64_t ii = oi * g.stride - g.padding + ki;
          const std::int64_t jj = oj * g.stride - g.padding + kj;
          int xb = 0;  // out-of-image taps contribute exact zero
          if (ii >= 0 && ii < h && jj >= 0 && jj < w) {
            xb = static_cast<int>(
                     xq[static_cast<std::size_t>((c * h + ii) * w + jj)]) -
                 128;
          }
          sum += static_cast<int>(qw[static_cast<std::size_t>(r * ckk + p)]) *
                 xb;
        }
        y[static_cast<std::size_t>((r * oh + oi) * ow + oj)] = requant_ref(
            static_cast<std::int32_t>(sum), 0, sx,
            scales[static_cast<std::size_t>(r)],
            bias[static_cast<std::size_t>(r)], relu);
      }
    }
  }
  return y;
}

TEST(QuantConv, PlaneMatchesReferenceAndGatherPathsAgreeBitwise) {
  Rng rng(17);
  const struct { std::int64_t ci, h, w, co; std::int64_t k, s, p; } cases[] = {
      {3, 16, 16, 8, 3, 1, 1},  {8, 16, 16, 16, 3, 2, 1},
      {16, 8, 8, 16, 3, 1, 1},  {64, 2, 2, 64, 3, 1, 1},
      {8, 16, 16, 16, 1, 2, 0}, {5, 7, 9, 11, 3, 1, 1},
      {4, 5, 5, 6, 5, 2, 2},
      // Deep k: round_up4(C*k*k) = 1080 > kKcFullS8, so k blocks through acc.
      {120, 6, 6, 16, 3, 1, 1},
      // 1x1 stride-1 pad-0: nothing to pad, so the clipped run-gather.
      {16, 8, 8, 24, 1, 1, 0},
      // Stride-1 padded plane of 64 x 66 x 66 bytes, past the 256 KiB
      // staging cap: the clipped run-gather again.
      {64, 64, 64, 8, 3, 1, 1},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE("ci=" + std::to_string(c.ci) + " h=" + std::to_string(c.h) +
                 " k=" + std::to_string(c.k) + " s=" + std::to_string(c.s) +
                 " p=" + std::to_string(c.p));
    ConvGeometry g;
    g.kernel = c.k;
    g.stride = c.s;
    g.padding = c.p;
    const std::int64_t ohw = g.out_extent(c.h) * g.out_extent(c.w);
    const std::int64_t ckk = c.ci * c.k * c.k;
    const auto xq = random_u8(c.ci * c.h * c.w, rng);
    const auto qw = random_s8(c.co * ckk, rng, 0.0f);
    PackedS8 packed;
    packed.pack(qw.data(), c.co, ckk);
    std::vector<float> scales(static_cast<std::size_t>(c.co));
    std::vector<float> bias(static_cast<std::size_t>(c.co));
    for (auto& s : scales) s = rng.uniform(0.001f, 0.02f);
    for (auto& b : bias) b = rng.uniform(-0.5f, 0.5f);
    const float sx = 0.009f;
    S8Epilogue ep;
    ep.scales = scales.data();
    ep.act_scale = sx;
    ep.corr = packed.corr();
    ep.bias = bias.data();
    ep.relu = true;

    std::vector<std::int32_t> acc(static_cast<std::size_t>(c.co * ohw));
    std::vector<float> got(static_cast<std::size_t>(c.co * ohw));
    conv2d_forward_s8(xq.data(), 1, 0, c.ci, c.h, c.w, g, packed.panels(),
                      c.co, acc.data(), got.data(), 0, ep);

    const std::vector<float> want = conv_s8_reference(
        xq, c.ci, c.h, c.w, g, qw, c.co, scales, sx, bias, true);
    for (std::size_t i = 0; i < want.size(); ++i) {
      expect_requant_near(got[i], want[i], "conv_s8",
                          static_cast<std::int64_t>(i));
    }

    // The index-table gather must reproduce the run-gather EXACTLY — same
    // integer sums, same single float expression per output.
    const std::vector<std::int32_t> table =
        build_s8_gather_index(c.ci, c.h, c.w, g);
    std::vector<float> got_table(static_cast<std::size_t>(c.co * ohw));
    conv2d_forward_s8(xq.data(), 1, 0, c.ci, c.h, c.w, g, packed.panels(),
                      c.co, acc.data(), got_table.data(), 0, ep, table.data());
    ASSERT_EQ(got, got_table) << "table gather diverged";
  }
}

TEST(QuantConv, BatchMatchesSingleSampleCallsBitwise) {
  Rng rng(19);
  const struct { std::int64_t n, ci, h, w, co; } cases[] = {
      // ohw = 49, not a multiple of 16: tiles straddle samples.
      {5, 6, 7, 7, 11},
      // Deep k (round_up4(120 * 9) > kKcFullS8): the per-sample k-blocked
      // path, whose acc is reused across the batch.
      {3, 120, 6, 6, 16},
      // 32 padded planes of 32 x 18 x 18 bytes overflow the staging cap, so
      // the batch takes the clipped run-gather while each n = 1 call stages.
      {32, 32, 16, 16, 16},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE("n=" + std::to_string(c.n) + " ci=" + std::to_string(c.ci));
    ConvGeometry g;  // 3x3 stride 1 pad 1
    const std::int64_t ohw = g.out_extent(c.h) * g.out_extent(c.w);
    const std::int64_t ckk = c.ci * 9;
    const std::int64_t x_stride = c.ci * c.h * c.w + 3;  // slack per sample
    const std::int64_t y_stride = c.co * ohw + 5;
    std::vector<std::uint8_t> xq(static_cast<std::size_t>(c.n * x_stride),
                                 128);
    for (std::int64_t i = 0; i < c.n; ++i) {
      const auto plane = random_u8(c.ci * c.h * c.w, rng);
      std::copy(plane.begin(), plane.end(),
                xq.begin() + static_cast<std::ptrdiff_t>(i * x_stride));
    }
    const auto qw = random_s8(c.co * ckk, rng, 0.3f);
    PackedS8 packed;
    packed.pack(qw.data(), c.co, ckk);
    std::vector<float> scales(static_cast<std::size_t>(c.co), 0.01f);
    std::vector<float> bias(static_cast<std::size_t>(c.co), 0.25f);
    S8Epilogue ep;
    ep.scales = scales.data();
    ep.act_scale = 0.012f;
    ep.corr = packed.corr();
    ep.bias = bias.data();
    ep.relu = true;

    std::vector<std::int32_t> acc(static_cast<std::size_t>(c.co * ohw));
    std::vector<float> want(static_cast<std::size_t>(c.n * y_stride), -7.0f);
    float amax_single = 0.0f;
    ep.amax = &amax_single;
    for (std::int64_t i = 0; i < c.n; ++i) {
      conv2d_forward_s8(xq.data() + i * x_stride, 1, 0, c.ci, c.h, c.w, g,
                        packed.panels(), c.co, acc.data(),
                        want.data() + i * y_stride, 0, ep);
    }

    std::vector<float> got(static_cast<std::size_t>(c.n * y_stride), -7.0f);
    float amax_batch = 0.0f;
    ep.amax = &amax_batch;
    conv2d_forward_s8(xq.data(), c.n, x_stride, c.ci, c.h, c.w, g,
                      packed.panels(), c.co, acc.data(), got.data(), y_stride,
                      ep);
    ASSERT_EQ(got, want) << "batch diverged from n = 1 calls";
    EXPECT_EQ(amax_batch, amax_single);
  }
}

std::unique_ptr<ResNet> trained_micro_r18(
    float sparsity, std::uint64_t seed,
    Granularity granularity = Granularity::kElement) {
  Rng rng(seed);
  auto model = make_micro_resnet18(10, rng);
  const Dataset train = generate_dataset(source_task_spec(), 96, seed + 1);
  TrainLoopConfig cfg;
  cfg.epochs = 2;
  cfg.batch_size = 16;
  Rng train_rng(seed ^ 0xABCDULL);
  train_classifier(*model, train, cfg, train_rng);
  if (sparsity > 0.0f) {
    OmpConfig prune_cfg;
    prune_cfg.sparsity = sparsity;
    prune_cfg.granularity = granularity;
    omp_prune(*model, prune_cfg);
  }
  model->set_training(false);
  return model;
}

double top1(const Tensor& logits, const std::vector<int>& labels) {
  const std::int64_t n = logits.dim(0), classes = logits.dim(1);
  std::int64_t hits = 0;
  for (std::int64_t i = 0; i < n; ++i) {
    const float* row = logits.data() + i * classes;
    std::int64_t best = 0;
    for (std::int64_t c = 1; c < classes; ++c) {
      if (row[c] > row[best]) best = c;
    }
    if (best == labels[static_cast<std::size_t>(i)]) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(n);
}

TEST(QuantEndToEnd, NativeTracksSimulatedReferenceAndIsDeterministic) {
  const Dataset probe = generate_dataset(source_task_spec(), 32, 62);
  // Element pruning leaves every layer dense or CSR; channel pruning makes
  // the channel-compact int8 branch (kept-row scatter) run too.
  for (const Granularity granularity :
       {Granularity::kElement, Granularity::kChannel}) {
    SCOPED_TRACE(granularity == Granularity::kChannel ? "channel" : "element");
    auto model = trained_micro_r18(0.5f, 61, granularity);

    CompileOptions simulated;
    simulated.int8_weights = true;
    simulated.int8_native = false;
    const CompiledTicket sim_plan = Engine::compile(*model, simulated);
    Workspace sim_ws(sim_plan, 32);
    const Tensor sim = sim_plan.predict(probe.images, sim_ws);

    CompileOptions native;
    native.int8_weights = true;
    native.int8_native = true;
    const CompiledTicket nat_plan = Engine::compile(*model, native);
    EXPECT_TRUE(nat_plan.int8_native());
    if (granularity == Granularity::kChannel) {
      bool compact_int8 = false;
      for (const LayerPlan& l : nat_plan.layers()) {
        compact_int8 |=
            l.format == PackedFormat::kChannelCompact && l.quantized;
      }
      EXPECT_TRUE(compact_int8) << "no quantized channel-compact layer";
    }
    Workspace nat_ws(nat_plan, 32);
    const Tensor nat = nat_plan.predict(probe.images, nat_ws);

    // Documented tolerance: the simulated reference fake-quantizes WEIGHTS
    // only and runs float activations; native execution additionally
    // quantizes activations to 8 bits per layer (dynamic per-batch scales).
    // Each layer therefore adds up to ~1/254 of its batch activation range
    // on top of the shared weight-quantization error, and the gap compounds
    // through the 18-conv depth (measured ~0.34 on raw logits here). 0.5
    // bounds it with margin while still catching any structural mistake
    // (wrong corr, scale, or gather) — those produce gaps orders of
    // magnitude larger. Prediction-level agreement is guarded by the top-1
    // test below.
    EXPECT_LE(nat.linf_distance(sim), 0.5f);

    // Bitwise determinism: same plan, same workspace shape, same bits.
    Workspace rerun_ws(nat_plan, 32);
    const Tensor rerun = nat_plan.predict(probe.images, rerun_ws);
    ASSERT_EQ(nat.dim(0), rerun.dim(0));
    const std::int64_t count = nat.dim(0) * nat.dim(1);
    for (std::int64_t i = 0; i < count; ++i) {
      ASSERT_EQ(nat.data()[i], rerun.data()[i]) << "nondeterministic at " << i;
    }
  }
}

TEST(QuantEndToEnd, Top1DeltaWithinOnePercentOnEvalBattery) {
  const Dataset eval = generate_dataset(source_task_spec(), 256, 71);
  for (const float sparsity : {0.0f, 0.9f}) {
    auto model = trained_micro_r18(sparsity, 73);

    const CompiledTicket fp32_plan = Engine::compile(*model);
    Workspace fp32_ws(fp32_plan, 32);
    const double fp32_acc = top1(fp32_plan.predict(eval.images, fp32_ws),
                                 eval.labels);

    CompileOptions options;
    options.int8_weights = true;
    const CompiledTicket int8_plan = Engine::compile(*model, options);
    EXPECT_TRUE(int8_plan.int8_native());
    Workspace int8_ws(int8_plan, 32);
    const double int8_acc = top1(int8_plan.predict(eval.images, int8_ws),
                                 eval.labels);

    // The acceptance bar: quantized serving gives back at most 1% top-1
    // against fp32 serving of the same ticket (dense and 90%-sparse).
    EXPECT_LE(fp32_acc - int8_acc, 0.01 + 1e-9)
        << "sparsity=" << sparsity << " fp32=" << fp32_acc
        << " int8=" << int8_acc;
  }
}

}  // namespace
}  // namespace rt
