// Tests for the generic training/evaluation loops.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "common/scheduler.hpp"
#include "data/synth.hpp"
#include "models/resnet.hpp"
#include "nn/loss.hpp"
#include "prune/baselines.hpp"
#include "train/loop.hpp"

namespace rt {
namespace {

ResNetConfig tiny_config(int classes) {
  ResNetConfig cfg;
  cfg.stage_blocks = {1, 1};
  cfg.stage_channels = {6, 12};
  cfg.num_classes = classes;
  cfg.name = "tiny";
  return cfg;
}

TEST(TrainLoop, ReducesLossAndLearnsTinyTask) {
  Rng rng(1);
  ResNet model(tiny_config(10), rng);
  const Dataset train = generate_dataset(source_task_spec(), 150, 2);

  model.set_training(false);
  const Dataset probe = generate_dataset(source_task_spec(), 60, 3);
  const float acc_before = evaluate_accuracy(model, probe);

  TrainLoopConfig cfg;
  cfg.epochs = 12;
  cfg.sgd.lr = 0.08f;
  cfg.lr_milestones = {8};
  Rng trng(4);
  const TrainStats stats = train_classifier(model, train, cfg, trng);
  EXPECT_LT(stats.final_loss, 1.0f);
  EXPECT_GT(stats.final_train_accuracy, 0.7f);

  const float acc_after = evaluate_accuracy(model, probe);
  EXPECT_GT(acc_after, acc_before + 0.25f);
}

TEST(TrainLoop, LrMilestonesApplied) {
  // Train one epoch at lr and one at lr/10; the parameter movement in the
  // second epoch should be much smaller once the loss plateaus. We test the
  // schedule plumbing directly instead: milestones at epoch 0 mean training
  // runs at base*gamma immediately, which must not diverge.
  Rng rng(5);
  ResNet model(tiny_config(10), rng);
  const Dataset train = generate_dataset(source_task_spec(), 60, 6);
  TrainLoopConfig cfg;
  cfg.epochs = 2;
  cfg.sgd.lr = 10.0f;  // absurd base lr...
  cfg.lr_milestones = {0};
  cfg.lr_gamma = 0.001f;  // ...tamed by the milestone at epoch 0
  Rng trng(7);
  const TrainStats stats = train_classifier(model, train, cfg, trng);
  EXPECT_TRUE(std::isfinite(stats.final_loss));
}

TEST(TrainLoop, SubsetTrainingFreezesRest) {
  Rng rng(8);
  ResNet model(tiny_config(10), rng);
  const Dataset train = generate_dataset(source_task_spec(), 60, 9);
  const StateDict before = model.state_dict();

  std::vector<Parameter*> head_only;
  model.head().collect_parameters(head_only);
  TrainLoopConfig cfg;
  cfg.epochs = 2;
  Rng trng(10);
  train_classifier(model, head_only, train, cfg, trng);

  const StateDict after = model.state_dict();
  // Trunk untouched (note: BN buffers DO move in train mode; compare a conv).
  EXPECT_LT(after.at("tiny.stem.weight")
                .linf_distance(before.at("tiny.stem.weight")),
            1e-9f);
  // Head moved.
  EXPECT_GT(after.at("tiny.head.weight")
                .linf_distance(before.at("tiny.head.weight")),
            1e-6f);
}

TEST(TrainLoop, GaussianAugmentationPathRuns) {
  Rng rng(11);
  ResNet model(tiny_config(10), rng);
  const Dataset train = generate_dataset(source_task_spec(), 60, 12);
  TrainLoopConfig cfg;
  cfg.epochs = 1;
  cfg.gaussian_sigma = 0.1f;
  Rng trng(13);
  EXPECT_TRUE(std::isfinite(train_classifier(model, train, cfg, trng).final_loss));
}

TEST(TrainLoop, AdversarialObjectiveRuns) {
  Rng rng(14);
  ResNet model(tiny_config(10), rng);
  const Dataset train = generate_dataset(source_task_spec(), 40, 15);
  TrainLoopConfig cfg;
  cfg.epochs = 1;
  cfg.adversarial = true;
  cfg.attack.steps = 2;
  Rng trng(16);
  EXPECT_TRUE(std::isfinite(train_classifier(model, train, cfg, trng).final_loss));
}

TEST(EvaluateAccuracy, RestoresTrainingMode) {
  Rng rng(17);
  ResNet model(tiny_config(10), rng);
  const Dataset test = generate_dataset(source_task_spec(), 20, 18);
  model.set_training(true);
  evaluate_accuracy(model, test);
  EXPECT_TRUE(model.training());
  model.set_training(false);
  evaluate_accuracy(model, test);
  EXPECT_FALSE(model.training());
}

TEST(PredictProbabilities, RowsAreDistributions) {
  Rng rng(19);
  ResNet model(tiny_config(5), rng);
  Dataset data = generate_dataset(source_task_spec(), 30, 20);
  // Relabel into 5 classes to match the head.
  for (auto& l : data.labels) l %= 5;
  data.num_classes = 5;
  const Tensor probs = predict_probabilities(model, data, 8);
  ASSERT_EQ(probs.dim(0), 30);
  ASSERT_EQ(probs.dim(1), 5);
  for (std::int64_t i = 0; i < probs.dim(0); ++i) {
    float s = 0.0f;
    for (std::int64_t j = 0; j < probs.dim(1); ++j) s += probs.at(i, j);
    EXPECT_NEAR(s, 1.0f, 1e-4f);
  }
}

TEST(TrainLoop, DeterministicGivenSeeds) {
  const Dataset train = generate_dataset(source_task_spec(), 60, 21);
  Rng ra(22);
  ResNet a(tiny_config(10), ra);
  Rng rb(22);
  ResNet b(tiny_config(10), rb);
  TrainLoopConfig cfg;
  cfg.epochs = 2;
  Rng ta(23), tb(23);
  train_classifier(a, train, cfg, ta);
  train_classifier(b, train, cfg, tb);
  const StateDict sa = a.state_dict();
  const StateDict sb = b.state_dict();
  for (const auto& [name, tensor] : sa) {
    EXPECT_LT(tensor.linf_distance(sb.at(name)), 1e-9f) << name;
  }
}

TEST(TrainLoop, WeightsBitwiseIdenticalAcrossLaneCounts) {
  // The ticket pipeline's training path at 1, 2, 4 and 8 scheduler lanes:
  // PGD adversarial steps on a micro-r18, then 90% per-layer magnitude
  // pruning and a masked finetune. Every parameter and BN statistic must
  // come out bitwise the same.
  // 36 samples in batches of 16 give 16, 16, 4: full and short slot sets.
  const Dataset train = generate_dataset(source_task_spec(), 36, 41);
  StateDict reference;
  for (const int lanes : {1, 2, 4, 8}) {
    Scheduler sched(lanes);
    SchedulerScope scope(sched);
    Rng init(42);
    auto model = make_micro_resnet18(10, init);
    TrainLoopConfig pgd;
    pgd.epochs = 1;
    pgd.batch_size = 16;
    pgd.adversarial = true;
    pgd.attack.epsilon = 0.08f;
    pgd.attack.steps = 2;
    Rng pgd_rng(43);
    train_classifier(*model, train, pgd, pgd_rng);

    layerwise_magnitude_prune(*model, 0.9f, Granularity::kElement);
    TrainLoopConfig finetune;
    finetune.epochs = 1;
    finetune.batch_size = 16;
    Rng finetune_rng(44);
    train_classifier(*model, train, finetune, finetune_rng);

    const StateDict state = model->state_dict();
    if (lanes == 1) {
      reference = state;
      continue;
    }
    ASSERT_EQ(state.size(), reference.size());
    for (const auto& [name, want] : reference) {
      const Tensor& got = state.at(name);
      ASSERT_EQ(got.numel(), want.numel()) << name;
      EXPECT_EQ(std::memcmp(got.data(), want.data(),
                            static_cast<std::size_t>(want.numel()) *
                                sizeof(float)),
                0)
          << name << " differs at " << lanes << " lanes";
    }
  }
}

}  // namespace
}  // namespace rt
