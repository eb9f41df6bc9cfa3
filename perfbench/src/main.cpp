// perfbench: the repo benchmark. One process runs all three workload
// sections — serve_zipf, eval_batch, train_ticket — so every run reports
// every end-to-end metric; --workload names the section that gets the run's
// full time budget (the other two run a quarter of it). Each budget is spent
// in kRounds rounds that interleave the sections, so a burst of host noise
// is spread over all of them.
//
//   perfbench --workload serve_zipf --seed 1 --seconds 16 --trace 0
//
// --trace 0 prints the end-to-end metrics. --trace 1 runs an untraced pass
// and then a traced pass of the same seed (each on half the budget), prints
// the tracing overhead between them, writes the traced spans as Chrome
// trace-event JSON under .bench_out/ with a per-layer self-time table, and
// prints the per-layer metrics. The last stdout line is the JSON result.

#include <algorithm>
#include <filesystem>
#include <iostream>
#include <stdexcept>
#include <string>

#include "common/scheduler.hpp"
#include "harness.hpp"
#include "sections.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

constexpr double kCompanionShare = 0.25;
constexpr int kSetupRepetitions = 3;
const char* const kWorkloads[] = {"serve_zipf", "eval_batch", "train_ticket"};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 16.0;
  int trace = 0;
};

/// Where traced runs write their Chrome trace, relative to the working
/// directory (the checkout root when run through perfbench/run.py).
const char* const kTraceDir = ".bench_out";

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + arg);
    const std::string value = argv[++i];
    if (arg == "--workload") {
      o.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      o.seed = std::stoull(value);
    } else if (arg == "--seconds") {
      o.seconds = std::stod(value);
    } else if (arg == "--trace") {
      o.trace = std::stoi(value);
    } else {
      throw std::invalid_argument("unknown argument " + arg);
    }
  }
  if (!have_workload ||
      std::find(std::begin(kWorkloads), std::end(kWorkloads), o.workload) ==
          std::end(kWorkloads)) {
    throw std::invalid_argument("--workload must be serve_zipf, eval_batch or train_ticket");
  }
  if (!(o.seconds > 0.0) || (o.trace != 0 && o.trace != 1)) {
    throw std::invalid_argument("--seconds must be > 0 and --trace 0 or 1");
  }
  return o;
}

/// One pass over the three sections: set-up (timed, repeated), the measured
/// runs, and in a traced pass the probes and per-layer metrics. Returns the
/// collected spans (empty when untraced).
std::vector<Span> run_pass(const Options& o, double scale, Tracer& tracer,
                           OpCounts& ops, Metrics& m, int setups) {
  SectionContext ctx{o.seed, tracer, ops, m, std::cout};
  std::unique_ptr<Section> serve, eval, train;
  std::vector<double> setup_s;
  for (int i = 0; i < setups; ++i) {
    serve.reset();
    eval.reset();
    train.reset();
    const std::int64_t t0 = now_ns();
    serve = make_serve_zipf(ctx);
    eval = make_eval_batch(ctx);
    train = make_train_ticket(ctx);
    setup_s.push_back(1e-9 * static_cast<double>(now_ns() - t0));
  }
  m.set("setup_s", median(setup_s));
  std::cout << "setup_s: " << describe(summarize(setup_s)) << '\n';

  const auto budget = [&](const char* name) {
    return o.seconds * scale * (o.workload == name ? 1.0 : kCompanionShare);
  };
  for (int round = 0; round < kRounds; ++round) {
    serve->run_round(budget("serve_zipf") / kRounds);
    eval->run_round(budget("eval_batch") / kRounds);
    train->run_round(budget("train_ticket") / kRounds);
  }
  serve->finish();
  eval->finish();
  train->finish();
  const Section& named = o.workload == "serve_zipf"   ? *serve
                         : o.workload == "eval_batch" ? *eval
                                                      : *train;
  m.set("cpu_us_per_row", named.cpu_us_per_row());
  m.set("peak_rss_mb", peak_rss_mb());
  if (!tracer.enabled()) return {};

  serve->probes();
  eval->probes();
  train->probes();
  run_kernel_probes(tracer);
  std::vector<Span> spans = tracer.collect();
  serve->per_layer(spans);
  eval->per_layer(spans);
  train->per_layer(spans);
  kernel_per_layer(spans, m);
  return spans;
}

void print_metrics(const Metrics& m, MetricKind kind) {
  for (const MetricSpec& spec : metric_table()) {
    if (spec.kind != kind || !m.has(spec.name)) continue;
    std::cout << "  " << spec.name << " = " << format_number(m.get(spec.name))
              << ' ' << spec.unit << '\n';
  }
}

int run(const Options& o) {
  std::cout << "perfbench workload=" << o.workload << " seed=" << o.seed
            << " seconds=" << o.seconds << " trace=" << o.trace
            << " lanes=" << rt::Scheduler::instance().num_threads() << '\n';
  const CpuJiffies jiffies0 = read_cpu_jiffies();
  SleepProbe sleep_probe;

  OpCounts ops;
  Metrics untraced;
  Metrics traced;
  std::vector<Span> spans;
  if (o.trace == 0) {
    Tracer off(false);
    run_pass(o, 1.0, off, ops, untraced, kSetupRepetitions);
  } else {
    Tracer off(false);
    run_pass(o, 0.5, off, ops, untraced, kSetupRepetitions);
    Tracer on(true);
    spans = run_pass(o, 0.5, on, ops, traced, 1);
  }

  const Summary sleep_late = summarize(sleep_probe.stop());
  const double steal = steal_share(jiffies0, read_cpu_jiffies());
  std::cout << "host noise: steal_share=" << format_number(steal)
            << " sleep_late_us p99="
            << (sleep_late.has_p99 ? format_number(sleep_late.p99) : "n/a")
            << " max=" << format_number(sleep_late.max)
            << " (generator lateness: serve_zipf.r1000/r4000 lines)\n";
  std::cout << "attempted=" << ops.attempted << " failed=" << ops.failed
            << " correct=" << (ops.correct ? "true" : "false") << '\n';

  if (o.trace == 0) {
    std::cout << "end-to-end metrics:\n";
    print_metrics(untraced, MetricKind::kEndToEnd);
    std::cout << result_json(ops, untraced, MetricKind::kEndToEnd) << std::endl;
    return 0;
  }

  std::cout << "tracing overhead (traced vs untraced pass, same seed and budget):\n";
  for (const MetricSpec& spec : metric_table()) {
    if (spec.kind != MetricKind::kEndToEnd) continue;
    const double u = untraced.get(spec.name);
    const double t = traced.get(spec.name);
    std::cout << "  " << spec.name << ": untraced=" << format_number(u)
              << " traced=" << format_number(t) << " change="
              << format_number(u != 0.0 ? (t - u) / u : 0.0) << '\n';
  }
  std::filesystem::create_directories(kTraceDir);
  const std::string path = std::string(kTraceDir) + "/trace-" + o.workload + "-" +
                           std::to_string(o.seed) + ".json";
  std::cout << "spans: " << spans.size() << " written to " << path << ": "
            << (write_chrome_trace(path, spans) ? "ok" : "FAILED") << '\n';
  std::cout << "self time per layer (traced pass):\n";
  for (const std::string& line : self_time_table(spans)) {
    std::cout << "  " << line << '\n';
  }
  std::cout << "per-layer metrics:\n";
  print_metrics(traced, MetricKind::kPerLayer);
  std::cout << result_json(ops, traced, MetricKind::kPerLayer) << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    if (argc == 2 && std::string(argv[1]) == "--list-metrics") {
      for (const perfbench::MetricSpec& spec : perfbench::metric_table()) {
        std::cout << spec.name << ' ' << spec.unit << ' '
                  << (spec.kind == perfbench::MetricKind::kEndToEnd ? "end_to_end"
                                                                     : "per_layer")
                  << '\n';
      }
      return 0;
    }
    return perfbench::run(perfbench::parse(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 1;
  }
}
