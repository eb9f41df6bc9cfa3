#pragma once
// perfbench harness: the pieces every workload section shares — the clock,
// the percentile rule, replayable traffic traces, host-noise probes, process
// CPU/RSS readings, and the metric table the final JSON line is checked
// against.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// ---- percentiles -----------------------------------------------------------

/// Samples strictly above the nearest-rank p-quantile of n samples.
std::int64_t samples_beyond(std::int64_t n, double p);

/// A percentile is reported only when at least this many samples lie beyond
/// it, so a p99.9 needs >= 10000 samples.
inline constexpr std::int64_t kMinSamplesBeyond = 10;

/// Nearest-rank quantile of `sorted` (ascending). Throws on an empty input.
double quantile_sorted(const std::vector<double>& sorted, double p);

/// Median, p99, p99.9 and max of a sample. A percentile without
/// kMinSamplesBeyond samples beyond it is reported as absent (has_* false).
struct Summary {
  std::int64_t count = 0;
  double p50 = 0.0;
  double p99 = 0.0;
  double p999 = 0.0;
  double max = 0.0;
  bool has_p99 = false;
  bool has_p999 = false;
};
Summary summarize(std::vector<double> samples);
/// "n=5600 p50=0.41 p99=3.9 p99.9=n/a max=8.1" (values printed as given).
std::string describe(const Summary& s);

double median(std::vector<double> values);
/// Nearest-rank p-quantile of an unsorted sample. Throws on an empty input.
double quantile(std::vector<double> values, double p);
/// "n=.. p10=.. p50=.. p90=.." of a sample.
std::string deciles(std::vector<double> values);

/// Within-run statistics for the throughput and duration metrics. Host
/// steal on a shared VM comes in bursts that slow a varying share of a run's
/// calls; the fastest decile of many short calls moves far less between runs
/// than their median (see perfbench/README.md), while a change that slows
/// every call still moves it one for one.
inline constexpr double kRateQuantile = 0.9;  ///< of per-call rows/s
inline constexpr double kTimeQuantile = 0.1;  ///< of per-repetition seconds

// ---- replayable traffic ----------------------------------------------------

/// One request of a generated trace: when it is due (ns after the phase
/// starts; 0 for closed-loop phases) and which pool row it carries.
struct Arrival {
  std::int64_t due_ns = 0;
  std::int32_t row = 0;
};

/// Zipf(s) over `pool` rows plus Poisson arrivals, drawn from the repo's
/// constexpr Pcg32 so a (seed, stream) pair pins the trace on every host.
/// Rank r (0 = hottest) maps to a seed-dependent pool row, so different
/// seeds heat different rows.
class TrafficGen {
 public:
  TrafficGen(std::uint64_t seed, std::uint64_t stream, std::int32_t pool,
             double zipf_s);
  /// `count` Zipf rows with Poisson arrivals at `rate_per_s` (rate 0 = all
  /// due at 0, for closed-loop phases).
  std::vector<Arrival> generate(std::int64_t count, double rate_per_s);

 private:
  rt::Pcg32 rng_;
  std::vector<double> cdf_;
  std::vector<std::int32_t> rank_to_row_;
};

/// FNV-1a over (due_ns, row) of every arrival: the printed trace identity.
std::uint64_t trace_hash(const std::vector<Arrival>& trace);

/// FNV-1a over raw bytes, continuing from `h`.
std::uint64_t fnv1a(const void* data, std::size_t bytes,
                    std::uint64_t h = 0xcbf29ce484222325ULL);

// ---- host and process readings ---------------------------------------------

/// Process user+sys CPU seconds so far.
double process_cpu_s();
/// Peak resident set size of the process, MiB.
double peak_rss_mb();

/// Aggregate /proc/stat jiffies; steal share between two readings.
struct CpuJiffies {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};
CpuJiffies read_cpu_jiffies();
double steal_share(const CpuJiffies& before, const CpuJiffies& after);

/// Background thread sleeping `period_us` at a time and recording how late
/// each wakeup is: the host's timer/steal noise during a run.
class SleepProbe {
 public:
  explicit SleepProbe(int period_us = 5000);
  ~SleepProbe();
  SleepProbe(const SleepProbe&) = delete;
  SleepProbe& operator=(const SleepProbe&) = delete;
  /// Stops the thread (idempotent) and returns the lateness samples, us.
  std::vector<double> stop();

 private:
  int period_us_;
  std::vector<double> lateness_us_;  ///< written by thread_ until joined
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

// ---- metrics ---------------------------------------------------------------

enum class MetricKind { kEndToEnd, kPerLayer };

struct MetricSpec {
  const char* name;
  const char* unit;
  MetricKind kind;
};

/// Every metric the benchmark reports, in BENCHMARK.json order.
const std::vector<MetricSpec>& metric_table();

/// Name -> value for one run; result_json() checks it against metric_table().
class Metrics {
 public:
  void set(const std::string& name, double value);
  bool has(const std::string& name) const;
  double get(const std::string& name) const;
  const std::map<std::string, double>& values() const { return values_; }

 private:
  std::map<std::string, double> values_;
};

/// Operation counts shared by all sections of a run.
struct OpCounts {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  /// A check that invalidates the run as a whole (not one operation).
  bool correct = true;
};

/// The final stdout line: {"correct":..,"attempted":..,"failed":..,
/// "metrics":{name:{"value":v,"unit":u},..}} holding exactly the metrics of
/// `kind`. Throws std::logic_error if one is missing.
std::string result_json(const OpCounts& ops, const Metrics& metrics,
                        MetricKind kind);

/// Shortest round-trip decimal form of v (all digits, no rounding).
std::string format_number(double v);

}  // namespace perfbench
