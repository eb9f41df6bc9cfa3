// train_ticket: the paper's pipeline at micro scale through its public
// functions — PGD-5 adversarial pretraining on the synthetic source task,
// one-shot magnitude pruning to 90%, whole-model finetuning on the cifar10
// stand-in, Engine::compile, then evaluate_accuracy on the compiled plan.
// The pipeline repeats from the same initial weights and data until each
// round's budget is spent; ticket_s is the fastest-decile pretrain -> compile
// wall time over the repetitions (kTimeQuantile).
//
// A repetition fails if the pretraining loss is non-finite, any trained
// weight is non-finite, the installed mask is not exactly the 90% OMP asks
// for, or the trained weights differ from the first repetition's.

#include <algorithm>
#include <cmath>
#include <ostream>

#include "attack/attack.hpp"
#include "core/checkpoint_store.hpp"
#include "data/synth.hpp"
#include "data/tasks.hpp"
#include "engine/engine.hpp"
#include "models/resnet.hpp"
#include "nn/loss.hpp"
#include "nn/optim.hpp"
#include "prune/omp.hpp"
#include "sections.hpp"
#include "train/loop.hpp"
#include "transfer/finetune.hpp"
#include "transfer/pretrain.hpp"

namespace perfbench {
namespace {

constexpr int kSourceImages = 32;
constexpr int kTargetTrain = 32;
constexpr int kTargetTest = 64;
constexpr int kBatch = 32;
constexpr float kSparsity = 0.9f;
constexpr int kPgdReps = 5;
constexpr int kStepReps = 10;

rt::PretrainConfig pretrain_config() {
  rt::PretrainConfig cfg;
  cfg.scheme = rt::PretrainScheme::kAdversarial;
  cfg.epochs = 1;
  cfg.batch_size = kBatch;
  cfg.attack.epsilon = 0.08f;
  cfg.attack.step_size = 0.02f;
  cfg.attack.steps = 5;
  return cfg;
}

rt::FinetuneConfig finetune_config() {
  rt::FinetuneConfig cfg;
  cfg.epochs = 1;
  cfg.batch_size = kBatch;
  return cfg;
}

struct Outcome {
  double ticket_s = 0.0;
  double top1 = 0.0;
  std::uint64_t weights_fp = 0;
  bool ok = true;
  std::string why;
};

class TrainTicket final : public Section {
 public:
  explicit TrainTicket(const SectionContext& ctx) : ctx_(ctx) {
    // Seed-derived sample seeds: the data is the workload input.
    source_ = rt::generate_dataset(rt::source_task_spec(), kSourceImages,
                                   ctx_.seed * 2 + 1);
    task_.spec = rt::task_spec("cifar10");
    task_.train = rt::generate_dataset(task_.spec, kTargetTrain, ctx_.seed * 2 + 2);
    task_.test = rt::generate_dataset(task_.spec, kTargetTest, ctx_.seed * 2 + 3);
    rt::Rng rng(kModelSeed);
    initial_ = rt::make_micro_resnet18(source_.num_classes, rng)->state_dict();
  }

  void run_round(double budget_s) override {
    const std::int64_t t_end = now_ns() + static_cast<std::int64_t>(budget_s * 1e9);
    const double cpu0 = process_cpu_s();
    // At least one repetition per round (and so at least one per run to
    // compare the trained weights against).
    do {
      const Outcome o = pipeline(ticket_s_.size());
      ticket_s_.push_back(o.ticket_s);
      rows_ += kSourceImages + kTargetTrain;
      ctx_.ops.attempted += 1;
      if (!o.ok) {
        ctx_.ops.failed += 1;
        ctx_.log << "train_ticket: repetition " << ticket_s_.size()
                 << " failed: " << o.why << '\n';
      }
      top1_ = o.top1;
    } while (now_ns() < t_end);
    cpu_s_ += process_cpu_s() - cpu0;
  }

  void finish() override {
    ctx_.metrics.set("ticket_s", quantile(ticket_s_, kTimeQuantile));
    ctx_.log << "train_ticket: ticket_s per repetition " << deciles(ticket_s_)
             << " top1=" << format_number(top1_) << " weights_fp=" << std::hex
             << weights_fp_ << std::dec
             << " cpu_us_per_row=" << format_number(cpu_us_per_row()) << '\n';
  }

  double cpu_us_per_row() const override {
    return 1e6 * cpu_s_ / static_cast<double>(std::max<std::int64_t>(rows_, 1));
  }

  void probes() override {
    rt::Rng rng(kModelSeed);
    auto model = rt::make_micro_resnet18(source_.num_classes, rng);
    model->load_state(initial_);
    std::vector<int> idx(kBatch);
    for (int i = 0; i < kBatch; ++i) idx[static_cast<std::size_t>(i)] = i;
    const rt::Tensor x = rt::gather_images(source_.images, idx);
    const std::vector<int> y = rt::gather_labels(source_.labels, idx);
    const rt::AttackConfig attack = pretrain_config().attack;
    for (int i = 0; i < kPgdReps; ++i) {
      Tracer::Scope span(ctx_.tracer, "attack.pgd", static_cast<std::uint64_t>(i), kBatch);
      rt::pgd_attack(*model, x, y, attack, rng);
    }
    model->set_training(true);
    rt::Sgd sgd(model->parameters(), pretrain_config().sgd);
    for (int i = 0; i < kStepReps; ++i) {
      Tracer::Scope span(ctx_.tracer, "nn.step", static_cast<std::uint64_t>(i), kBatch);
      sgd.zero_grad();
      const rt::Tensor logits = model->forward(x);
      const rt::LossResult loss = rt::softmax_cross_entropy(logits, y);
      model->backward(loss.grad_logits);
      sgd.step();
    }
  }

  void per_layer(const std::vector<Span>& spans) override {
    const auto p50 = [&](const char* name) {
      const std::vector<double> d = span_durations_ns(spans, name);
      return d.empty() ? 0.0 : median(d);
    };
    ctx_.metrics.set("attack.pgd_ms", 1e-6 * p50("attack.pgd"));
    ctx_.metrics.set("nn.step_ms", 1e-6 * p50("nn.step"));
    ctx_.metrics.set("train.pretrain_s", 1e-9 * p50("train.pretrain"));
    ctx_.metrics.set("prune.omp_ms", 1e-6 * p50("prune.omp"));
    ctx_.metrics.set("transfer.finetune_s", 1e-9 * p50("transfer.finetune"));
    ctx_.metrics.set("transfer.top1", top1_);
    // Low 52 bits: exact in a JSON number.
    ctx_.metrics.set("train.weights_fp",
                     static_cast<double>(weights_fp_ & ((1ULL << 52) - 1)));
  }

 private:
  Outcome pipeline(std::size_t rep) {
    Outcome o;
    rt::Rng init_rng(kModelSeed);
    auto model = rt::make_micro_resnet18(source_.num_classes, init_rng);
    model->load_state(initial_);
    rt::Rng rng(ctx_.seed ^ 0x7ea1ULL);
    Tracer::Scope ticket(ctx_.tracer, "train.ticket", rep, 1.0);
    const std::int64_t t0 = now_ns();
    rt::TrainStats stats;
    {
      Tracer::Scope span(ctx_.tracer, "train.pretrain", rep, kSourceImages);
      stats = rt::pretrain(*model, source_, pretrain_config(), rng);
    }
    rt::OmpConfig omp;
    omp.sparsity = kSparsity;
    {
      Tracer::Scope span(ctx_.tracer, "prune.omp", rep, 1.0);
      rt::omp_prune(*model, omp);
    }
    {
      Tracer::Scope span(ctx_.tracer, "transfer.finetune", rep, kTargetTrain);
      rt::finetune_whole_model(*model, task_, finetune_config(), rng);
    }
    std::shared_ptr<const rt::CompiledTicket> plan;
    {
      Tracer::Scope span(ctx_.tracer, "engine.compile", rep, 1.0);
      plan = std::make_shared<const rt::CompiledTicket>(rt::Engine::compile(*model));
    }
    o.ticket_s = 1e-9 * static_cast<double>(now_ns() - t0);
    {
      Tracer::Scope span(ctx_.tracer, "transfer.evaluate", rep, kTargetTest);
      rt::SessionOptions sopt;
      sopt.shared_scheduler = true;
      rt::Session session(plan, sopt);
      o.top1 = rt::evaluate_accuracy(session, task_.test);
    }

    if (!std::isfinite(stats.final_loss)) {
      o.ok = false;
      o.why = "non-finite pretraining loss";
    }
    std::int64_t total = 0;
    std::int64_t masked = 0;
    bool finite = true;
    for (rt::Parameter* p : model->prunable_parameters()) {
      total += p->value.numel();
      for (std::int64_t i = 0; i < p->value.numel(); ++i) {
        if (p->has_mask() && p->mask[i] == 0.0f) {
          ++masked;
          if (p->value[i] != 0.0f) finite = false;  // a pruned weight moved
        }
      }
    }
    for (rt::Parameter* p : model->parameters()) {
      for (std::int64_t i = 0; i < p->value.numel(); ++i) {
        if (!std::isfinite(p->value[i])) finite = false;
      }
    }
    // omp_prune removes floor(sparsity * total) weights.
    const auto want = static_cast<std::int64_t>(static_cast<double>(kSparsity) *
                                                static_cast<double>(total));
    if (masked != want) {
      o.ok = false;
      o.why = "mask removes " + std::to_string(masked) + " of " +
              std::to_string(total) + " weights, want " + std::to_string(want);
    }
    if (!finite) {
      o.ok = false;
      o.why = "non-finite or unmasked pruned weight after finetuning";
    }
    o.weights_fp = rt::state_dict_fingerprint(model->state_dict());
    if (rep == 0) {
      weights_fp_ = o.weights_fp;
    } else if (o.weights_fp != weights_fp_) {
      o.ok = false;
      o.why = "trained weights differ from the first repetition";
    }
    return o;
  }

  SectionContext ctx_;
  rt::Dataset source_;
  rt::TaskData task_;
  rt::StateDict initial_;
  double top1_ = 0.0;
  std::uint64_t weights_fp_ = 0;
  std::vector<double> ticket_s_;
  std::int64_t rows_ = 0;
  double cpu_s_ = 0.0;
};

}  // namespace

std::unique_ptr<Section> make_train_ticket(const SectionContext& ctx) {
  return std::make_unique<TrainTicket>(ctx);
}

}  // namespace perfbench
