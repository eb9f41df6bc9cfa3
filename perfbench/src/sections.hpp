#pragma once
// The three workload sections. Each is set up by its factory (the timed
// set-up: models, plans, servers, reference logits), measured by run(), and
// in the traced pass also probed and summarised per layer.

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <vector>

#include "harness.hpp"
#include "trace.hpp"

namespace perfbench {

struct SectionContext {
  std::uint64_t seed = 0;
  Tracer& tracer;
  OpCounts& ops;
  Metrics& metrics;
  std::ostream& log;
};

class Section {
 public:
  virtual ~Section() = default;
  /// Measures the workload for about `budget_s` seconds, accumulating
  /// samples and op counts. A run calls this once per round, interleaving
  /// the sections, so a burst of host noise touches only part of each
  /// section's samples.
  virtual void run_round(double budget_s) = 0;
  /// After the last round: sets the section's end-to-end metrics and logs
  /// its diagnostics.
  virtual void finish() = 0;
  /// Process CPU per row of this section's own work (cpu_us_per_row when
  /// its workload is the one named). Valid after finish().
  virtual double cpu_us_per_row() const = 0;
  /// Traced pass only: extra calls into single layers, under spans.
  virtual void probes() = 0;
  /// Traced pass only: derives the section's per-layer metrics from spans.
  virtual void per_layer(const std::vector<Span>& spans) = 0;
};

std::unique_ptr<Section> make_serve_zipf(const SectionContext& ctx);
std::unique_ptr<Section> make_eval_batch(const SectionContext& ctx);
std::unique_ptr<Section> make_train_ticket(const SectionContext& ctx);

/// Kernel and scheduler probes that belong to no one workload (linalg conv
/// and GEMM rates, TaskGroup spawn+wait), recorded under spans; per_layer
/// metrics are set from those spans.
void run_kernel_probes(Tracer& tracer);
void kernel_per_layer(const std::vector<Span>& spans, Metrics& metrics);

/// Rounds per pass: each section runs kRounds slices of its budget,
/// interleaved with the other sections.
inline constexpr int kRounds = 4;

/// Model weights are part of the program, not of the workload input, so
/// every section builds its micro-r18 from this fixed seed.
inline constexpr std::uint64_t kModelSeed = 9;

}  // namespace perfbench
