// Kernel micro-benchmarks (google-benchmark): the compute primitives whose
// cost dominates the experiment harness. Useful for spotting performance
// regressions in the substrate rather than reproducing a paper figure.
#include <benchmark/benchmark.h>

#include <iterator>
#include <memory>
#include <thread>
#include <vector>

#include "common/scheduler.hpp"

#include "attack/attack.hpp"
#include "attack/trades.hpp"
#include "engine/engine.hpp"
#include "hw/shrink.hpp"
#include "linalg/conv.hpp"
#include "linalg/gemm.hpp"
#include "linalg/gemm_s8.hpp"
#include "models/resnet.hpp"
#include "nn/loss.hpp"
#include "nn/optim.hpp"
#include "prune/baselines.hpp"
#include "prune/omp.hpp"
#include "tensor/tensor.hpp"

namespace {

void BM_Matmul(benchmark::State& state) {
  const auto n = state.range(0);
  rt::Rng rng(1);
  const rt::Tensor a = rt::Tensor::randn({n, n}, rng);
  const rt::Tensor b = rt::Tensor::randn({n, n}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rt::matmul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_Matmul)->Arg(32)->Arg(64)->Arg(128)->Arg(256);

// Raw kernel throughput (items == FLOPs) for the shared hot path; the Arg is
// the square problem size. Sparse variants zero the given percentage of the
// weight operand, matching the masked-ticket regime the fast path targets.
void BM_GemmNN(benchmark::State& state) {
  const auto n = state.range(0);
  const float sparsity = static_cast<float>(state.range(1)) / 100.0f;
  rt::Rng rng(2);
  rt::Tensor a = rt::Tensor::randn({n, n}, rng);
  const rt::Tensor b = rt::Tensor::randn({n, n}, rng);
  rt::Tensor c({n, n});
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    if (rng.uniform() < sparsity) a[i] = 0.0f;
  }
  for (auto _ : state) {
    rt::gemm_nn(n, n, n, a.data(), b.data(), c.data());
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_GemmNN)
    ->Args({128, 0})
    ->Args({256, 0})
    ->Args({256, 90})
    ->Args({512, 0})
    ->Args({512, 90});

void BM_GemmNT(benchmark::State& state) {
  const auto n = state.range(0);
  const float sparsity = static_cast<float>(state.range(1)) / 100.0f;
  rt::Rng rng(3);
  const rt::Tensor a = rt::Tensor::randn({n, n}, rng);
  rt::Tensor b = rt::Tensor::randn({n, n}, rng);
  rt::Tensor c({n, n});
  // Channel-style pruning: zero whole rows of B, the nt fast-path shape.
  const auto zero_rows = static_cast<std::int64_t>(
      sparsity * static_cast<float>(n));
  for (std::int64_t j = 0; j < zero_rows; ++j) {
    for (std::int64_t kk = 0; kk < n; ++kk) b[j * n + kk] = 0.0f;
  }
  for (auto _ : state) {
    rt::gemm_nt(n, n, n, a.data(), b.data(), c.data());
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_GemmNT)->Args({256, 0})->Args({256, 70})->Args({512, 0});

// True int8 GEMM: packed s8 weights x u8 offset activations with int32
// accumulation and the fused requant+bias epilogue, i.e. exactly what a
// native int8 conv layer executes per tile. Items == integer MACs * 2 so
// items_per_second is directly comparable against BM_GemmNN at the same
// size; the ratio is the kernel-level int8 speedup (VNNI when the build
// targets it, the portable integer core otherwise).
void BM_GemmS8(benchmark::State& state) {
  const auto n = state.range(0);
  const float sparsity = static_cast<float>(state.range(1)) / 100.0f;
  rt::Rng rng(4);
  std::vector<std::int8_t> qa(static_cast<std::size_t>(n * n));
  for (auto& v : qa) {
    v = rng.uniform() < sparsity
            ? std::int8_t{0}
            : static_cast<std::int8_t>(rng.uniform_int(-127, 127));
  }
  rt::PackedS8 packed;
  packed.pack(qa.data(), n, n);
  std::vector<std::uint8_t> bq(static_cast<std::size_t>(n * n));
  for (auto& v : bq) {
    v = static_cast<std::uint8_t>(128 + rng.uniform_int(-127, 127));
  }
  std::vector<float> scales(static_cast<std::size_t>(n), 1.0f / 127.0f);
  std::vector<float> c(static_cast<std::size_t>(n * n));
  std::vector<std::int32_t> acc(static_cast<std::size_t>(n * n));
  rt::S8Epilogue ep;
  ep.scales = scales.data();
  ep.act_scale = 1.0f / 127.0f;
  for (auto _ : state) {
    rt::gemm_s8_nn(n, n, n, packed, bq.data(), acc.data(), c.data(), ep);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_GemmS8)->Args({256, 0})->Args({256, 90})->Args({512, 0});

// Multi-thread GEMM scaling on a private work-stealing scheduler: Arg 0 is
// the scheduler's lane count. Row-block leaves are stolen dynamically, so
// items_per_second over the single-thread entry is the scheduler's parallel
// efficiency at this size.
void BM_GemmNNThreads(benchmark::State& state) {
  const auto threads = static_cast<int>(state.range(0));
  constexpr std::int64_t n = 512;
  rt::Rng rng(12);
  const rt::Tensor a = rt::Tensor::randn({n, n}, rng);
  const rt::Tensor b = rt::Tensor::randn({n, n}, rng);
  rt::Tensor c({n, n});
  rt::Scheduler sched(threads);
  rt::SchedulerScope scope(sched);
  for (auto _ : state) {
    rt::gemm_nn(n, n, n, a.data(), b.data(), c.data());
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_GemmNNThreads)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

// The training-path convolution pair (forward + full backward) across the
// four ResNet-18 residual-body shapes at 32x32 input resolution, measured at
// the kernel layer on the fused implicit-GEMM kernels. Items == FLOPs.
void BM_ConvTrain(benchmark::State& state) {
  struct Shape {
    std::int64_t ch, h, w;
  };
  // 64@32^2 -> 128@16^2 -> 256@8^2 -> 512@4^2: equal MACs per layer, the
  // full range of plane-vs-channel aspect ratios the kernels must tile.
  constexpr Shape kShapes[] = {
      {64, 32, 32}, {128, 16, 16}, {256, 8, 8}, {512, 4, 4}};
  constexpr std::int64_t kBatch = 4;
  const rt::ConvGeometry geom{3, 1, 1};

  rt::Rng rng(11);
  std::vector<rt::Tensor> xs, ws, gs, ys, dxs, dws;
  std::int64_t flops_per_iter = 0;
  for (const Shape& s : kShapes) {
    const std::int64_t ckk = s.ch * 9;
    xs.push_back(rt::Tensor::randn({kBatch, s.ch, s.h, s.w}, rng));
    ws.push_back(rt::Tensor::randn({s.ch, ckk}, rng, 0.05f));
    gs.push_back(rt::Tensor::randn({kBatch, s.ch, s.h, s.w}, rng));
    ys.push_back(rt::Tensor({kBatch, s.ch, s.h, s.w}));
    dxs.push_back(rt::Tensor({kBatch, s.ch, s.h, s.w}));
    dws.push_back(rt::Tensor({s.ch, ckk}));
    // forward + wgrad + dgrad each cost 2 * ch^2 * 9 * h * w MACs per sample.
    flops_per_iter += 3 * kBatch * 2 * s.ch * ckk * s.h * s.w;
  }

  for (auto _ : state) {
    for (std::size_t l = 0; l < xs.size(); ++l) {
      const Shape& s = kShapes[l];
      const std::int64_t plane = s.ch * s.h * s.w;
      dws[l].fill_(0.0f);
      dxs[l].fill_(0.0f);
      for (std::int64_t i = 0; i < kBatch; ++i) {
        rt::conv2d_forward_plane(xs[l].data() + i * plane, s.ch, s.h, s.w,
                                 geom, ws[l].data(), s.ch,
                                 ys[l].data() + i * plane);
        rt::conv2d_wgrad_plane(gs[l].data() + i * plane, xs[l].data() + i * plane,
                               s.ch, s.h, s.w, geom, s.ch, dws[l].data());
        rt::conv2d_dgrad_plane(ws[l].data(), s.ch, gs[l].data() + i * plane,
                               s.ch, s.h, s.w, geom,
                               dxs[l].data() + i * plane);
      }
      benchmark::DoNotOptimize(ys[l].data());
      benchmark::DoNotOptimize(dws[l].data());
      benchmark::DoNotOptimize(dxs[l].data());
    }
  }
  state.SetItemsProcessed(state.iterations() * flops_per_iter);
}
BENCHMARK(BM_ConvTrain);

// The serving-path fp32 conv forward at inference shape: the micro-r18's
// eleven conv layer shapes at a 16x16 input, each weighted by how often it
// occurs, batch 64, one sample per call on a single lane with pre-packed
// weight panels — what the engine's dense plan runs per conv layer.
// Reports GFLOP/s; items == FLOPs.
void BM_ConvForward(benchmark::State& state) {
  struct Shape {
    std::int64_t c_in, c_out, h, kernel, stride, padding, count;
  };
  constexpr Shape kShapes[] = {
      {3, 8, 16, 3, 1, 1, 1},   {8, 8, 16, 3, 1, 1, 4},
      {8, 16, 16, 3, 2, 1, 1},  {8, 16, 16, 1, 2, 0, 1},
      {16, 16, 8, 3, 1, 1, 3},  {16, 32, 8, 3, 2, 1, 1},
      {16, 32, 8, 1, 2, 0, 1},  {32, 32, 4, 3, 1, 1, 3},
      {32, 64, 4, 3, 2, 1, 1},  {32, 64, 4, 1, 2, 0, 1},
      {64, 64, 2, 3, 1, 1, 3}};
  constexpr std::int64_t kBatch = 64;
  rt::Scheduler sched(1);
  rt::SchedulerScope scope(sched);

  rt::Rng rng(13);
  std::vector<rt::Tensor> xs, ws, ys;
  std::vector<rt::PackedWeights> packed(std::size(kShapes));
  std::int64_t flops_per_iter = 0;
  for (std::size_t l = 0; l < std::size(kShapes); ++l) {
    const Shape& s = kShapes[l];
    const rt::ConvGeometry geom{s.kernel, s.stride, s.padding};
    const std::int64_t oh = geom.out_extent(s.h);
    const std::int64_t ckk = s.c_in * s.kernel * s.kernel;
    xs.push_back(rt::Tensor::randn({kBatch, s.c_in, s.h, s.h}, rng));
    ws.push_back(rt::Tensor::randn({s.c_out, ckk}, rng, 0.1f));
    ys.push_back(rt::Tensor({kBatch, s.c_out, oh, oh}));
    packed[l].pack(ws[l].data(), s.c_out, ckk, /*forward=*/true,
                   /*dgrad=*/false);
    flops_per_iter += s.count * kBatch * 2 * s.c_out * ckk * oh * oh;
  }

  for (auto _ : state) {
    for (std::size_t l = 0; l < std::size(kShapes); ++l) {
      const Shape& s = kShapes[l];
      const rt::ConvGeometry geom{s.kernel, s.stride, s.padding};
      rt::ConvKernelOpts opts;
      opts.packed_weights = &packed[l];
      const std::int64_t in_plane = s.c_in * s.h * s.h;
      const std::int64_t out_plane = ys[l].numel() / kBatch;
      for (std::int64_t rep = 0; rep < s.count; ++rep) {
        for (std::int64_t i = 0; i < kBatch; ++i) {
          rt::conv2d_forward_plane(xs[l].data() + i * in_plane, s.c_in, s.h,
                                   s.h, geom, ws[l].data(), s.c_out,
                                   ys[l].data() + i * out_plane, nullptr,
                                   false, opts);
        }
      }
      benchmark::DoNotOptimize(ys[l].data());
    }
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * flops_per_iter);
  state.counters["GFLOP/s"] = benchmark::Counter(
      1e-9 * static_cast<double>(flops_per_iter),
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_ConvForward);

// Nested-parallel conv training step: batch-outer tasks with the batch
// deliberately smaller than the lane count, so the flat decomposition (Arg 1
// == 0: batch-level parallel_for only, the old pool's composition limit)
// strands lanes while the nested one (Arg 1 == 1: kernels additionally
// split output-column tiles into stealable subtasks) backfills them. Arg 0
// is the scheduler lane count; both modes produce bitwise-identical
// results, so items_per_second isolates the composition win.
void BM_ConvTrainMT(benchmark::State& state) {
  const auto threads = static_cast<int>(state.range(0));
  const bool nested = state.range(1) == 1;
  struct Shape {
    std::int64_t ch, h, w;
  };
  constexpr Shape kShapes[] = {
      {64, 32, 32}, {128, 16, 16}, {256, 8, 8}, {512, 4, 4}};
  constexpr std::int64_t kBatch = 2;  // < threads: the compose-or-idle case
  const rt::ConvGeometry geom{3, 1, 1};

  rt::Rng rng(13);
  std::vector<rt::Tensor> xs, ws, gs, ys, dxs, dws;
  std::int64_t flops_per_iter = 0;
  for (const Shape& s : kShapes) {
    const std::int64_t ckk = s.ch * 9;
    xs.push_back(rt::Tensor::randn({kBatch, s.ch, s.h, s.w}, rng));
    ws.push_back(rt::Tensor::randn({s.ch, ckk}, rng, 0.05f));
    gs.push_back(rt::Tensor::randn({kBatch, s.ch, s.h, s.w}, rng));
    ys.push_back(rt::Tensor({kBatch, s.ch, s.h, s.w}));
    dxs.push_back(rt::Tensor({kBatch, s.ch, s.h, s.w}));
    dws.push_back(rt::Tensor({kBatch, s.ch, ckk}));  // per-sample dw slots
    flops_per_iter += 3 * kBatch * 2 * s.ch * ckk * s.h * s.w;
  }
  rt::Scheduler sched(threads);
  rt::SchedulerScope scope(sched);
  rt::ConvKernelOpts opts;
  opts.parallel_tiles = nested;

  for (auto _ : state) {
    for (std::size_t l = 0; l < xs.size(); ++l) {
      const Shape& s = kShapes[l];
      const std::int64_t plane = s.ch * s.h * s.w;
      const std::int64_t ckk = s.ch * 9;
      dws[l].fill_(0.0f);
      dxs[l].fill_(0.0f);
      float* xd = xs[l].data();
      float* wd = ws[l].data();
      float* gd = gs[l].data();
      float* yd = ys[l].data();
      float* dxd = dxs[l].data();
      float* dwd = dws[l].data();
      sched.parallel_for(
          kBatch,
          [&, xd, wd, gd, yd, dxd, dwd](std::int64_t b0, std::int64_t b1) {
            for (std::int64_t i = b0; i < b1; ++i) {
              rt::conv2d_forward_plane(xd + i * plane, s.ch, s.h, s.w, geom,
                                       wd, s.ch, yd + i * plane, nullptr,
                                       false, opts);
              rt::conv2d_wgrad_plane(gd + i * plane, xd + i * plane, s.ch,
                                     s.h, s.w, geom, s.ch,
                                     dwd + i * s.ch * ckk, opts);
              rt::conv2d_dgrad_plane(wd, s.ch, gd + i * plane, s.ch, s.h,
                                     s.w, geom, dxd + i * plane, opts);
            }
          },
          /*grain=*/1);
      benchmark::DoNotOptimize(ys[l].data());
      benchmark::DoNotOptimize(dws[l].data());
      benchmark::DoNotOptimize(dxs[l].data());
    }
  }
  state.SetItemsProcessed(state.iterations() * flops_per_iter);
}
BENCHMARK(BM_ConvTrainMT)->Args({4, 0})->Args({4, 1})->UseRealTime();

void BM_ResNetForward(benchmark::State& state) {
  rt::Rng rng(2);
  auto model = state.range(0) == 18 ? rt::make_micro_resnet18(10, rng)
                                    : rt::make_micro_resnet50(10, rng);
  model->set_training(false);
  const rt::Tensor x = rt::Tensor::uniform({16, 3, 16, 16}, rng, 0.0f, 1.0f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model->forward(x));
  }
  state.SetItemsProcessed(state.iterations() * 16);
}
BENCHMARK(BM_ResNetForward)->Arg(18)->Arg(50);

void BM_ResNetTrainStep(benchmark::State& state) {
  rt::Rng rng(3);
  auto model = state.range(0) == 18 ? rt::make_micro_resnet18(10, rng)
                                    : rt::make_micro_resnet50(10, rng);
  const rt::Tensor x = rt::Tensor::uniform({16, 3, 16, 16}, rng, 0.0f, 1.0f);
  std::vector<int> y(16);
  for (std::size_t i = 0; i < y.size(); ++i) y[i] = static_cast<int>(i % 10);
  for (auto _ : state) {
    model->zero_grad();
    const rt::Tensor logits = model->forward(x);
    const rt::LossResult loss = rt::softmax_cross_entropy(logits, y);
    benchmark::DoNotOptimize(model->backward(loss.grad_logits));
  }
  state.SetItemsProcessed(state.iterations() * 16);
}
BENCHMARK(BM_ResNetTrainStep)->Arg(18)->Arg(50);

void BM_PgdAttack(benchmark::State& state) {
  rt::Rng rng(4);
  auto model = rt::make_micro_resnet18(10, rng);
  model->set_training(false);
  const rt::Tensor x = rt::Tensor::uniform({16, 3, 16, 16}, rng, 0.0f, 1.0f);
  std::vector<int> y(16);
  for (std::size_t i = 0; i < y.size(); ++i) y[i] = static_cast<int>(i % 10);
  rt::AttackConfig cfg;
  cfg.steps = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(rt::pgd_attack(*model, x, y, cfg, rng));
  }
  state.SetItemsProcessed(state.iterations() * 16);
}
BENCHMARK(BM_PgdAttack)->Arg(1)->Arg(5)->Arg(10);

void BM_TradesStep(benchmark::State& state) {
  rt::Rng rng(5);
  auto model = rt::make_micro_resnet18(10, rng);
  const rt::Tensor x = rt::Tensor::uniform({16, 3, 16, 16}, rng, 0.0f, 1.0f);
  std::vector<int> y(16);
  for (std::size_t i = 0; i < y.size(); ++i) y[i] = static_cast<int>(i % 10);
  rt::TradesConfig cfg;
  cfg.attack.steps = static_cast<int>(state.range(0));
  for (auto _ : state) {
    model->zero_grad();
    benchmark::DoNotOptimize(rt::trades_step(*model, x, y, cfg, rng));
  }
  state.SetItemsProcessed(state.iterations() * 16);
}
BENCHMARK(BM_TradesStep)->Arg(1)->Arg(5);

void BM_OptimizerStep(benchmark::State& state) {
  rt::Rng rng(6);
  auto model = rt::make_micro_resnet50(10, rng);
  auto params = model->parameters();
  for (rt::Parameter* p : params) p->grad.fill_(0.01f);
  const bool adam = state.range(0) == 1;
  rt::Sgd sgd(params, {});
  rt::Adam adam_opt(params, {});
  for (auto _ : state) {
    if (adam) {
      adam_opt.step();
    } else {
      sgd.step();
    }
  }
  state.SetItemsProcessed(state.iterations() * model->num_parameters());
}
BENCHMARK(BM_OptimizerStep)->Arg(0)->Arg(1);  // 0 = SGD, 1 = Adam

void BM_ShrunkVsMaskedForward(benchmark::State& state) {
  // The shrink compiler's payoff measured at the kernel level: forward cost
  // of a 70%-channel-pruned r50, masked (range 0) vs physically shrunk (1).
  rt::Rng rng(7);
  auto model = rt::make_micro_resnet50(10, rng);
  rt::OmpConfig cfg;
  cfg.sparsity = 0.7f;
  cfg.granularity = rt::Granularity::kChannel;
  rt::omp_prune(*model, cfg);
  rt::neutralize_dead_internal_channels(*model);
  if (state.range(0) == 1) {
    rt::shrink_internal_channels(*model, rng);
  }
  model->set_training(false);
  const rt::Tensor x = rt::Tensor::uniform({16, 3, 16, 16}, rng, 0.0f, 1.0f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model->forward(x));
  }
  state.SetItemsProcessed(state.iterations() * 16);
}
BENCHMARK(BM_ShrunkVsMaskedForward)->Arg(0)->Arg(1);

// Serving-path throughput on a micro-r18 ticket. Arg 0 is the execution
// mode: 0 = eager Module::forward, 1 = compiled engine (fp32 kernels),
// 2 = compiled engine with native int8 execution (s8 weights, int32
// accumulation, fused requant). Arg 1 is the element sparsity percentage:
// 90/95/98 pack the pruned convs as CSR and run the sparse-weight x
// dense-activation forward over batch-innermost staged samples; 0 packs
// dense implicit-GEMM panels, the shape where int8 shows its kernel
// speedup. items_per_second of {2, s} over {1, s} is the end-to-end int8
// win.
void BM_EngineThroughput(benchmark::State& state) {
  const auto mode = state.range(0);
  const float sparsity = static_cast<float>(state.range(1)) / 100.0f;
  rt::Rng rng(9);
  auto model = rt::make_micro_resnet18(10, rng);
  if (sparsity > 0.0f) {
    rt::layerwise_magnitude_prune(*model, sparsity, rt::Granularity::kElement);
  }
  model->set_training(false);
  const rt::Tensor x = rt::Tensor::uniform({16, 3, 16, 16}, rng, 0.0f, 1.0f);

  if (mode == 0) {
    for (auto _ : state) {
      benchmark::DoNotOptimize(model->forward(x));
    }
  } else {
    rt::CompileOptions options;
    options.int8_weights = mode == 2;
    rt::Session session(rt::Engine::compile(*model, options),
                        /*max_batch=*/16);
    for (auto _ : state) {
      benchmark::DoNotOptimize(session.predict(x));
    }
  }
  state.SetItemsProcessed(state.iterations() * 16);
}
BENCHMARK(BM_EngineThroughput)
    ->Args({0, 90})
    ->Args({1, 90})
    ->Args({2, 90})
    ->Args({1, 95})
    ->Args({1, 98})
    ->Args({2, 98})
    ->Args({1, 0})
    ->Args({2, 0});

// Session scaling: Arg concurrent threads hammering one shared Session.
// Near-linear items/sec scaling (up to the core count) is the target; on a
// single-core host this degenerates to a contention check.
void BM_EngineSessionThreads(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  rt::Rng rng(10);
  auto model = rt::make_micro_resnet18(10, rng);
  rt::layerwise_magnitude_prune(*model, 0.9f, rt::Granularity::kElement);
  rt::Session session(rt::Engine::compile(*model), /*max_batch=*/16);
  const rt::Tensor x = rt::Tensor::uniform({16, 3, 16, 16}, rng, 0.0f, 1.0f);

  constexpr int kCallsPerThread = 4;
  for (auto _ : state) {
    std::vector<std::thread> workers;
    workers.reserve(static_cast<std::size_t>(threads));
    for (int t = 0; t < threads; ++t) {
      workers.emplace_back([&] {
        for (int c = 0; c < kCallsPerThread; ++c) {
          benchmark::DoNotOptimize(session.predict(x));
        }
      });
    }
    for (std::thread& w : workers) w.join();
  }
  state.SetItemsProcessed(state.iterations() * threads * kCallsPerThread * 16);
}
BENCHMARK(BM_EngineSessionThreads)->Arg(1)->Arg(2)->Arg(4);

// Shared-scheduler serving: 4 concurrent Sessions (one caller thread each)
// over one compiled ticket and one work-stealing scheduler at the given
// lane count. Arg 1 == 0 is the flat baseline — each predict() runs its
// chunks serially on its calling thread, the only concurrency the old pool
// offered the engine — while Arg 1 == 1 splits every call's max_batch
// chunks into stealable tasks so the calls cooperatively fill the machine
// even when callers are fewer or slower than lanes. Logits are bitwise
// identical across modes.
void BM_EngineThroughputMT(benchmark::State& state) {
  const auto threads = static_cast<int>(state.range(0));
  const bool shared = state.range(1) == 1;
  constexpr int kSessions = 4;
  constexpr int kCallsPerSession = 2;
  constexpr std::int64_t kBatch = 32;

  rt::Rng rng(14);
  auto model = rt::make_micro_resnet18(10, rng);
  rt::layerwise_magnitude_prune(*model, 0.9f, rt::Granularity::kElement);
  model->set_training(false);
  const rt::Tensor x =
      rt::Tensor::uniform({kBatch, 3, 16, 16}, rng, 0.0f, 1.0f);

  auto plan = std::make_shared<const rt::CompiledTicket>(
      rt::Engine::compile(*model));
  rt::SessionOptions options;
  options.max_batch = 8;  // 4 chunk tasks per call
  options.shared_scheduler = shared;
  std::vector<std::unique_ptr<rt::Session>> sessions;
  sessions.reserve(kSessions);
  for (int s = 0; s < kSessions; ++s) {
    sessions.push_back(std::make_unique<rt::Session>(plan, options));
  }
  rt::Scheduler sched(threads);

  for (auto _ : state) {
    std::vector<std::thread> callers;
    callers.reserve(kSessions);
    for (int s = 0; s < kSessions; ++s) {
      callers.emplace_back([&, s] {
        rt::SchedulerScope scope(sched);
        for (int c = 0; c < kCallsPerSession; ++c) {
          benchmark::DoNotOptimize(sessions[static_cast<std::size_t>(s)]
                                       ->predict(x));
        }
      });
    }
    for (std::thread& caller : callers) caller.join();
  }
  state.SetItemsProcessed(state.iterations() * kSessions * kCallsPerSession *
                          kBatch);
}
BENCHMARK(BM_EngineThroughputMT)->Args({4, 0})->Args({4, 1})->UseRealTime();

void BM_KlDivergence(benchmark::State& state) {
  rt::Rng rng(8);
  const auto n = state.range(0);
  const rt::Tensor a = rt::Tensor::randn({n, 10}, rng);
  const rt::Tensor b = rt::Tensor::randn({n, 10}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rt::kl_divergence(a, b));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_KlDivergence)->Arg(64)->Arg(512);

}  // namespace

BENCHMARK_MAIN();
