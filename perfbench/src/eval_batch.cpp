// eval_batch: bulk evaluation the way make_eval_session runs it — an
// in-process Session::predict at max_batch 64 on the shared scheduler — over
// four plans compiled from the same micro-r18: dense fp32, 90% element-wise
// (CSR), 50% channel-pruned (channel-compact) and dense int8. No net, no
// coalescer, no cache: the engine/linalg inference kernels do the work.
//
// Every predicted row is checked bitwise. fp32 rows must equal the row's
// solo Session::predict. int8 activation scales are per batch (a known
// defect), so an int8 row's solo logits differ from its batched ones; that
// count is reported on every run (engine.int8.solo_mismatch_rows) and int8
// rows are checked against the same batch computed once at set-up instead.

#include <algorithm>
#include <cstring>
#include <ostream>
#include <thread>

#include "engine/engine.hpp"
#include "models/resnet.hpp"
#include "prune/baselines.hpp"
#include "sections.hpp"

namespace perfbench {
namespace {

constexpr std::int64_t kRows = 512;
constexpr std::int64_t kBatch = 256;
constexpr std::int64_t kRowFloats = 3 * 16 * 16;
constexpr int kClasses = 10;

struct PlanKind {
  const char* name;
  const char* span;  ///< static span name, "engine.predict.<name>"
  bool int8;
};

constexpr PlanKind kKinds[] = {
    {"dense", "engine.predict.dense", false},
    {"csr", "engine.predict.csr", false},
    {"compact", "engine.predict.compact", false},
    {"int8", "engine.predict.int8", true},
};

std::shared_ptr<const rt::CompiledTicket> compile_kind(const PlanKind& kind) {
  rt::Rng rng(kModelSeed);
  auto model = rt::make_micro_resnet18(kClasses, rng);
  const std::string name = kind.name;
  if (name == "csr") {
    rt::layerwise_magnitude_prune(*model, 0.9f, rt::Granularity::kElement);
  } else if (name == "compact") {
    rt::layerwise_magnitude_prune(*model, 0.5f, rt::Granularity::kChannel);
  }
  model->set_training(false);
  rt::CompileOptions options;  // 16x16, per-layer format from the zeros
  options.int8_weights = kind.int8;
  return std::make_shared<const rt::CompiledTicket>(
      rt::Engine::compile(*model, options));
}

bool rows_equal(const float* a, const float* b) {
  return std::memcmp(a, b, sizeof(float) * kClasses) == 0;
}

class EvalBatch final : public Section {
 public:
  explicit EvalBatch(const SectionContext& ctx) : ctx_(ctx) {
    rt::Pcg32 g(ctx_.seed, /*stream=*/3);
    rows_ = rt::Tensor({kRows, 3, 16, 16});
    for (std::int64_t i = 0; i < rows_.numel(); ++i) {
      rows_[i] = static_cast<float>(g.uniform_double());
    }
    for (std::int64_t b = 0; b < kRows / kBatch; ++b) {
      batches_.push_back(rows_.slice_rows(b * kBatch, kBatch));
    }
    rt::SessionOptions sopt;
    sopt.max_batch = 64;
    sopt.shared_scheduler = true;
    for (const PlanKind& kind : kKinds) {
      Plan p;
      p.kind = &kind;
      p.plan = compile_kind(kind);
      p.session = std::make_unique<rt::Session>(p.plan, sopt);
      std::vector<float> solo = solo_references(*p.session);
      // The reference each measured row is held to (see file comment).
      p.expected.resize(static_cast<std::size_t>(kRows * kClasses));
      if (kind.int8) {
        for (std::size_t b = 0; b < batches_.size(); ++b) {
          const rt::Tensor out = p.session->predict(batches_[b]);
          std::memcpy(p.expected.data() + b * kBatch * kClasses, out.data(),
                      sizeof(float) * kBatch * kClasses);
        }
        for (std::int64_t r = 0; r < kRows; ++r) {
          const auto off = static_cast<std::size_t>(r * kClasses);
          if (!rows_equal(p.expected.data() + off, solo.data() + off)) {
            ++int8_solo_mismatch_;
          }
        }
      } else {
        p.expected = std::move(solo);
      }
      plans_.push_back(std::move(p));
    }
  }

  void run_round(double budget_s) override {
    const std::int64_t t_end = now_ns() + static_cast<std::int64_t>(budget_s * 1e9);
    const double cpu0 = process_cpu_s();
    // Round-robin over the plans so host drift hits every plan alike.
    for (std::size_t pass = 0; pass == 0 || now_ns() < t_end; ++pass, ++calls_) {
      const std::size_t b = calls_ % batches_.size();
      for (Plan& p : plans_) {
        const double flops = 2.0 * static_cast<double>(p.plan->effective_macs()) *
                             static_cast<double>(kBatch);
        const std::int64_t t0 = now_ns();
        rt::Tensor out;
        {
          Tracer::Scope span(ctx_.tracer, p.kind->span, calls_, flops);
          out = p.session->predict(batches_[b]);
        }
        const std::int64_t t1 = now_ns();
        p.rates.push_back(static_cast<double>(kBatch) /
                          (1e-9 * static_cast<double>(std::max<std::int64_t>(t1 - t0, 1))));
        rows_done_ += kBatch;
        ctx_.ops.attempted += kBatch;
        for (std::int64_t r = 0; r < kBatch; ++r) {
          const auto off = static_cast<std::size_t>((b * kBatch + r) * kClasses);
          if (!rows_equal(out.data() + r * kClasses, p.expected.data() + off)) {
            ctx_.ops.failed += 1;
          }
        }
      }
    }
    cpu_s_ += process_cpu_s() - cpu0;
  }

  void finish() override {
    for (const Plan& p : plans_) {
      const std::string name = p.kind->name;
      ctx_.metrics.set("rows_per_s." + name, quantile(p.rates, kRateQuantile));
      ctx_.log << "eval_batch." << name << ": rows_per_s per " << kBatch
               << "-row call " << deciles(p.rates) << '\n';
    }
    ctx_.log << "eval_batch: cpu_us_per_row=" << format_number(cpu_us_per_row()) << '\n';
    ctx_.log << "eval_batch: int8 rows whose batched logits differ from solo "
                "predict (known defect, not counted as failed): "
             << int8_solo_mismatch_ << "/" << kRows << '\n';
  }

  double cpu_us_per_row() const override {
    return 1e6 * cpu_s_ / static_cast<double>(std::max<std::int64_t>(rows_done_, 1));
  }

  void probes() override {}

  void per_layer(const std::vector<Span>& spans) override {
    for (const Plan& p : plans_) {
      const std::string name = p.kind->name;
      ctx_.metrics.set("engine." + name + ".gflops",
                       1e-9 * work_per_second(spans, p.kind->span));
      ctx_.metrics.set("engine." + name + ".weight_mb",
                       static_cast<double>(p.plan->packed_bytes() +
                                           p.plan->prepacked_bytes()) /
                           (1024.0 * 1024.0));
    }
    ctx_.metrics.set("engine.int8.solo_mismatch_rows",
                     static_cast<double>(int8_solo_mismatch_));
  }

 private:
  struct Plan {
    const PlanKind* kind = nullptr;
    std::shared_ptr<const rt::CompiledTicket> plan;
    std::unique_ptr<rt::Session> session;
    std::vector<float> expected;  ///< what a measured row must equal
    std::vector<double> rates;    ///< rows/s of every measured call
  };

  std::vector<float> solo_references(rt::Session& session) const {
    std::vector<float> out(static_cast<std::size_t>(kRows * kClasses));
    constexpr int kThreads = 4;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (std::int64_t r = t; r < kRows; r += kThreads) {
          const rt::Tensor logits = session.predict(rows_.slice_rows(r, 1));
          std::memcpy(out.data() + r * kClasses, logits.data(),
                      sizeof(float) * kClasses);
        }
      });
    }
    for (std::thread& t : threads) t.join();
    return out;
  }

  SectionContext ctx_;
  rt::Tensor rows_;
  std::vector<rt::Tensor> batches_;
  std::vector<Plan> plans_;
  std::int64_t int8_solo_mismatch_ = 0;
  std::uint64_t calls_ = 0;
  std::int64_t rows_done_ = 0;
  double cpu_s_ = 0.0;
};

}  // namespace

std::unique_ptr<Section> make_eval_batch(const SectionContext& ctx) {
  return std::make_unique<EvalBatch>(ctx);
}

}  // namespace perfbench
