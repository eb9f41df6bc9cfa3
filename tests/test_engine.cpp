// Engine-vs-eager parity and Session concurrency tests.
//
// Engine::compile must reproduce eval-mode Module::forward within float
// rounding for every architecture, pretraining objective, sparsity level and
// packed storage format; the sweep trains tiny models briefly so batch-norm
// running statistics (the folded part) are non-trivial. Session must be
// usable from many threads at once and stay bitwise deterministic.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "data/synth.hpp"
#include "engine/engine.hpp"
#include "hw/quant.hpp"
#include "models/resnet.hpp"
#include "prune/baselines.hpp"
#include "prune/omp.hpp"
#include "train/loop.hpp"

namespace rt {
namespace {

std::unique_ptr<ResNet> tiny_model(bool bottleneck, std::uint64_t seed) {
  Rng rng(seed);
  ResNetConfig cfg;
  cfg.stage_blocks = {1, 1};
  cfg.stage_channels = {6, 12};
  cfg.num_classes = 10;
  cfg.name = bottleneck ? "tb" : "ta";
  if (bottleneck) {
    cfg.block = ResNetConfig::BlockType::kBottleneck;
    cfg.bottleneck_expansion = 2;
  }
  return std::make_unique<ResNet>(cfg, rng);
}

/// Brief natural or adversarial training so BN running statistics move away
/// from their initialization — the part conv+BN folding must reproduce.
void train_briefly(ResNet& model, bool adversarial, std::uint64_t seed) {
  const Dataset train = generate_dataset(source_task_spec(), 48, seed);
  TrainLoopConfig cfg;
  cfg.epochs = 1;
  cfg.batch_size = 16;
  if (adversarial) {
    cfg.adversarial = true;
    cfg.attack = AttackConfig{0.06f, 0.02f, 2, true};
  }
  Rng rng(seed ^ 0x5EEDULL);
  train_classifier(model, train, cfg, rng);
}

float max_logit_gap(const Tensor& a, const Tensor& b) {
  return a.linf_distance(b);
}

TEST(EngineParity, ArchSchemeSparsityFormatSweep) {
  const Dataset probe = generate_dataset(source_task_spec(), 24, 77);
  const std::vector<std::optional<PackedFormat>> formats{
      std::nullopt, PackedFormat::kDense, PackedFormat::kChannelCompact,
      PackedFormat::kCsr};

  for (const bool bottleneck : {false, true}) {
    for (const bool adversarial : {false, true}) {
      auto model = tiny_model(bottleneck, 11 + (bottleneck ? 1 : 0));
      train_briefly(*model, adversarial, adversarial ? 21 : 22);

      for (const float sparsity : {0.0f, 0.5f, 0.9f}) {
        for (const Granularity granularity :
             {Granularity::kElement, Granularity::kChannel}) {
          if (sparsity == 0.0f && granularity == Granularity::kChannel) {
            continue;  // identical to the element case at zero sparsity
          }
          OmpConfig prune_cfg;
          prune_cfg.sparsity = sparsity;
          prune_cfg.granularity = granularity;
          omp_prune(*model, prune_cfg);

          model->set_training(false);
          const Tensor eager = model->forward(probe.images);

          for (const auto& format : formats) {
            CompileOptions options;
            options.force_format = format;
            const CompiledTicket plan = Engine::compile(*model, options);
            Workspace ws(plan, 8);  // smaller than the probe: chunked path
            const Tensor compiled = plan.predict(probe.images, ws);
            EXPECT_LE(max_logit_gap(eager, compiled), 1e-4f)
                << "bottleneck=" << bottleneck << " adv=" << adversarial
                << " sparsity=" << sparsity << " granularity="
                << granularity_name(granularity) << " format="
                << (format ? packed_format_name(*format) : "auto");
          }
        }
      }
    }
  }
}

TEST(EngineParity, AutoFormatMatchesMaskStructure) {
  auto model = tiny_model(false, 31);
  train_briefly(*model, false, 33);

  // Unstructured 90%: every prunable conv layer should pack as CSR.
  OmpConfig unstructured;
  unstructured.sparsity = 0.9f;
  omp_prune(*model, unstructured);
  const CompiledTicket csr_plan = Engine::compile(*model);
  bool saw_csr = false;
  for (const LayerPlan& l : csr_plan.layers()) {
    if (l.format == PackedFormat::kCsr) saw_csr = true;
  }
  EXPECT_TRUE(saw_csr);
  EXPECT_LT(csr_plan.effective_macs(), csr_plan.dense_macs() / 4);

  // Channel-structured 70%: row-pruned weights should go channel-compact.
  auto chan_model = tiny_model(false, 35);
  train_briefly(*chan_model, false, 36);
  OmpConfig channel;
  channel.sparsity = 0.7f;
  channel.granularity = Granularity::kChannel;
  omp_prune(*chan_model, channel);
  const CompiledTicket compact_plan = Engine::compile(*chan_model);
  bool saw_compact = false;
  for (const LayerPlan& l : compact_plan.layers()) {
    if (l.format == PackedFormat::kChannelCompact) saw_compact = true;
  }
  EXPECT_TRUE(saw_compact);

  // A dense model stays dense and packs to exactly its fp32 footprint.
  auto dense_model = tiny_model(false, 37);
  const CompiledTicket dense_plan = Engine::compile(*dense_model);
  for (const LayerPlan& l : dense_plan.layers()) {
    EXPECT_EQ(l.format, PackedFormat::kDense) << l.name;
    EXPECT_EQ(l.nnz, l.rows * l.cols) << l.name;
  }
}

TEST(EngineParity, Int8MatchesFakeQuantizedEagerModel) {
  auto model = tiny_model(false, 41);
  train_briefly(*model, false, 42);
  OmpConfig prune_cfg;
  prune_cfg.sparsity = 0.5f;
  omp_prune(*model, prune_cfg);

  CompileOptions options;
  options.int8_weights = true;
  // Pin the simulated-PTQ path: this test bounds WEIGHT quantization error
  // against the eager model. Native execution adds activation quantization
  // on top and is guarded separately in test_quant_kernels.cpp.
  options.int8_native = false;
  const CompiledTicket plan = Engine::compile(*model, options);

  // Engine int8 quantizes FOLDED weights, so parity against the eager model
  // holds only approximately; the error must be bounded by the quantization
  // step, far below what plain fp32 folding produces.
  const Dataset probe = generate_dataset(source_task_spec(), 16, 43);
  model->set_training(false);
  const Tensor eager = model->forward(probe.images);
  Workspace ws(plan, 16);
  const Tensor compiled = plan.predict(probe.images, ws);
  EXPECT_LE(eager.linf_distance(compiled), 0.15f);

  // The plan must carry the shippable int8 sidecar and price it as such.
  std::int64_t fp32_bytes = 0;
  for (const LayerPlan& l : plan.layers()) {
    EXPECT_TRUE(l.quantized);
    fp32_bytes += l.rows * l.cols * 4;
  }
  EXPECT_LT(plan.packed_bytes(), fp32_bytes);
}

TEST(EngineSession, ChunksArbitraryBatchSizes) {
  auto model = tiny_model(false, 51);
  train_briefly(*model, false, 52);
  model->set_training(false);
  const Dataset probe = generate_dataset(source_task_spec(), 23, 53);
  const Tensor eager = model->forward(probe.images);

  Session session(Engine::compile(*model), /*max_batch=*/5);
  const Tensor out = session.predict(probe.images);
  EXPECT_EQ(out.dim(0), 23);
  EXPECT_LE(eager.linf_distance(out), 1e-4f);

  const std::vector<int> classes = session.classify(probe.images);
  EXPECT_EQ(classes.size(), 23u);
}

TEST(EngineSession, ConcurrentPredictIsDeterministic) {
  auto model = tiny_model(true, 61);
  train_briefly(*model, false, 62);
  OmpConfig prune_cfg;
  prune_cfg.sparsity = 0.8f;
  omp_prune(*model, prune_cfg);

  Session session(Engine::compile(*model), /*max_batch=*/8);
  const Dataset probe = generate_dataset(source_task_spec(), 16, 63);
  const Tensor reference = session.predict(probe.images);

  constexpr int kThreads = 4;
  constexpr int kRepeats = 3;
  std::vector<Tensor> results(kThreads * kRepeats);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int r = 0; r < kRepeats; ++r) {
        results[static_cast<std::size_t>(t * kRepeats + r)] =
            session.predict(probe.images);
      }
    });
  }
  for (std::thread& th : threads) th.join();

  for (const Tensor& out : results) {
    ASSERT_TRUE(out.same_shape(reference));
    // Bitwise equality: serial per-call execution means thread scheduling
    // cannot perturb float accumulation order.
    for (std::int64_t i = 0; i < out.numel(); ++i) {
      ASSERT_EQ(out[i], reference[i]);
    }
  }
}

TEST(EngineSession, EvalHelpersAgreeWithEagerPath)
{
  auto model = tiny_model(false, 71);
  train_briefly(*model, false, 72);
  const Dataset probe = generate_dataset(source_task_spec(), 40, 73);

  Session session = make_eval_session(*model, probe, 16);
  const float engine_acc = evaluate_accuracy(session, probe);
  const float eager_acc = evaluate_accuracy(*model, probe, 16);
  EXPECT_NEAR(engine_acc, eager_acc, 1e-6f);

  const Tensor engine_probs = predict_probabilities(session, probe);
  const Tensor eager_probs = predict_probabilities(*model, probe, 16);
  EXPECT_LE(engine_probs.linf_distance(eager_probs), 1e-4f);
}

TEST(EngineParity, TinyGeometryKeepsCsrTapsInBounds) {
  // At a 4x4 compiled geometry the deepest stride-2 conv sees a 1x1 input:
  // most of its staged stride phases are pure border, and parity must hold.
  auto model = tiny_model(false, 91);
  train_briefly(*model, false, 92);
  OmpConfig prune_cfg;
  prune_cfg.sparsity = 0.9f;
  omp_prune(*model, prune_cfg);
  model->set_training(false);

  Rng rng(93);
  const Tensor x = Tensor::uniform({6, 3, 4, 4}, rng, 0.0f, 1.0f);
  const Tensor eager = model->forward(x);

  CompileOptions options;
  options.height = 4;
  options.width = 4;
  options.force_format = PackedFormat::kCsr;
  const CompiledTicket plan = Engine::compile(*model, options);
  Workspace ws(plan, 6);
  EXPECT_LE(eager.linf_distance(plan.predict(x, ws)), 1e-4f);
}

TEST(EngineSession, RowLogitsIndependentOfBatchMakeup) {
  // The serving contract for fp32 plans: a row's logits depend only on the
  // plan and the row. Batches of 16 and 17 straddle the CSR forward's
  // staged sample block.
  constexpr std::int64_t kPool = 24;
  constexpr int kClasses = 10;
  Rng rng(101);
  const Tensor pool = Tensor::uniform({kPool, 3, 16, 16}, rng, 0.0f, 1.0f);
  const std::int64_t row_floats = 3 * 16 * 16;

  struct Kind {
    const char* name;
    float sparsity;
    Granularity granularity;
    PackedFormat expect;
  };
  const Kind kinds[] = {
      {"dense", 0.0f, Granularity::kElement, PackedFormat::kDense},
      {"csr90", 0.9f, Granularity::kElement, PackedFormat::kCsr},
      {"csr98", 0.98f, Granularity::kElement, PackedFormat::kCsr},
      {"compact", 0.5f, Granularity::kChannel, PackedFormat::kChannelCompact},
  };
  for (const Kind& kind : kinds) {
    SCOPED_TRACE(kind.name);
    Rng model_rng(9);
    auto model = make_micro_resnet18(kClasses, model_rng);
    if (kind.sparsity > 0.0f) {
      layerwise_magnitude_prune(*model, kind.sparsity, kind.granularity);
    }
    model->set_training(false);
    auto plan = std::make_shared<const CompiledTicket>(Engine::compile(*model));
    ASSERT_TRUE(std::any_of(
        plan->layers().begin(), plan->layers().end(),
        [&](const LayerPlan& l) { return l.format == kind.expect; }));

    Session solo(plan, /*max_batch=*/1);
    const Tensor alone = solo.predict(pool);
    Session wide(plan, /*max_batch=*/64);
    const Tensor chunked = wide.predict(pool);
    ASSERT_EQ(std::memcmp(alone.data(), chunked.data(),
                          sizeof(float) * kPool * kClasses),
              0)
        << "max_batch 1 and 64 sessions disagree";

    for (const std::int64_t batch : {7, 16, 17, 64}) {
      Tensor x({batch, 3, 16, 16});
      Tensor logits({batch, kClasses});
      // Rotation k puts pool row (k + j) % kPool at position j, so every row
      // sits at every position once.
      for (std::int64_t k = 0; k < kPool; ++k) {
        for (std::int64_t j = 0; j < batch; ++j) {
          std::memcpy(x.data() + j * row_floats,
                      pool.data() + ((k + j) % kPool) * row_floats,
                      sizeof(float) * row_floats);
        }
        wide.run_rows(x.data(), batch, logits.data());
        for (std::int64_t j = 0; j < batch; ++j) {
          const std::int64_t row = (k + j) % kPool;
          ASSERT_EQ(std::memcmp(logits.data() + j * kClasses,
                                alone.data() + row * kClasses,
                                sizeof(float) * kClasses),
                    0)
              << "row " << row << " at position " << j << " of " << batch;
        }
      }
    }
  }
}

TEST(EngineSession, Int8CsrRepeatRunsAreBitwiseIdentical) {
  // int8 activation scales are per batch, so only a repeat of the same
  // batch is held to identical bytes.
  Rng model_rng(9);
  auto model = make_micro_resnet18(10, model_rng);
  layerwise_magnitude_prune(*model, 0.9f, Granularity::kElement);
  model->set_training(false);
  CompileOptions options;
  options.int8_weights = true;
  options.force_format = PackedFormat::kCsr;
  Session session(Engine::compile(*model, options), /*max_batch=*/64);
  Rng rng(103);
  for (const std::int64_t batch : {1, 7, 16, 17, 64}) {
    const Tensor x = Tensor::uniform({batch, 3, 16, 16}, rng, 0.0f, 1.0f);
    const Tensor first = session.predict(x);
    const Tensor second = session.predict(x);
    EXPECT_EQ(std::memcmp(first.data(), second.data(),
                          sizeof(float) * static_cast<std::size_t>(
                                              first.numel())),
              0)
        << "batch " << batch;
  }
}

TEST(EngineCompile, RejectsMismatchedGeometry) {
  auto model = tiny_model(false, 81);
  Session session(Engine::compile(*model), 8);
  Rng rng(82);
  const Tensor wrong = Tensor::uniform({2, 3, 8, 8}, rng, 0.0f, 1.0f);
  EXPECT_THROW(session.predict(wrong), std::invalid_argument);
}

}  // namespace
}  // namespace rt
