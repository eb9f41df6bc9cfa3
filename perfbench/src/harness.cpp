#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace perfbench {

// ---- percentiles -----------------------------------------------------------

namespace {

/// 1-based nearest rank of the p-quantile among n samples.
std::int64_t nearest_rank(std::int64_t n, double p) {
  const auto rank = static_cast<std::int64_t>(
      std::ceil(p * static_cast<double>(n) - 1e-9));
  return std::clamp<std::int64_t>(rank, 1, n);
}

}  // namespace

std::int64_t samples_beyond(std::int64_t n, double p) {
  if (n <= 0) return 0;
  return n - nearest_rank(n, p);
}

double quantile_sorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) throw std::invalid_argument("quantile of no samples");
  const auto n = static_cast<std::int64_t>(sorted.size());
  return sorted[static_cast<std::size_t>(nearest_rank(n, p) - 1)];
}

Summary summarize(std::vector<double> samples) {
  Summary s;
  s.count = static_cast<std::int64_t>(samples.size());
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.p50 = quantile_sorted(samples, 0.5);
  s.max = samples.back();
  s.has_p99 = samples_beyond(s.count, 0.99) >= kMinSamplesBeyond;
  s.has_p999 = samples_beyond(s.count, 0.999) >= kMinSamplesBeyond;
  if (s.has_p99) s.p99 = quantile_sorted(samples, 0.99);
  if (s.has_p999) s.p999 = quantile_sorted(samples, 0.999);
  return s;
}

std::string describe(const Summary& s) {
  std::ostringstream out;
  out << "n=" << s.count << " p50=" << format_number(s.p50)
      << " p99=" << (s.has_p99 ? format_number(s.p99) : "n/a")
      << " p99.9=" << (s.has_p999 ? format_number(s.p999) : "n/a")
      << " max=" << format_number(s.max);
  return out.str();
}

double quantile(std::vector<double> values, double p) {
  std::sort(values.begin(), values.end());
  return quantile_sorted(values, p);
}

std::string deciles(std::vector<double> values) {
  if (values.empty()) return "n=0";
  std::sort(values.begin(), values.end());
  std::ostringstream out;
  out << "n=" << values.size() << " p10=" << format_number(quantile_sorted(values, 0.1))
      << " p50=" << format_number(quantile_sorted(values, 0.5))
      << " p90=" << format_number(quantile_sorted(values, 0.9));
  return out.str();
}

double median(std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument("median of no values");
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

// ---- replayable traffic ----------------------------------------------------

TrafficGen::TrafficGen(std::uint64_t seed, std::uint64_t stream,
                       std::int32_t pool, double zipf_s)
    : rng_(seed, stream) {
  if (pool <= 0) throw std::invalid_argument("TrafficGen: empty pool");
  cdf_.resize(static_cast<std::size_t>(pool));
  double total = 0.0;
  for (std::int32_t r = 0; r < pool; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), zipf_s);
    cdf_[static_cast<std::size_t>(r)] = total;
  }
  for (double& c : cdf_) c /= total;
  rank_to_row_.resize(static_cast<std::size_t>(pool));
  for (std::int32_t r = 0; r < pool; ++r) {
    rank_to_row_[static_cast<std::size_t>(r)] = r;
  }
  for (std::size_t i = rank_to_row_.size() - 1; i > 0; --i) {
    const std::uint32_t j = rng_.next_below(static_cast<std::uint32_t>(i + 1));
    std::swap(rank_to_row_[i], rank_to_row_[j]);
  }
}

std::vector<Arrival> TrafficGen::generate(std::int64_t count,
                                          double rate_per_s) {
  std::vector<Arrival> trace(static_cast<std::size_t>(std::max<std::int64_t>(count, 0)));
  double t_s = 0.0;
  for (Arrival& a : trace) {
    if (rate_per_s > 0.0) {
      t_s += -std::log(1.0 - rng_.uniform_double()) / rate_per_s;
      a.due_ns = static_cast<std::int64_t>(t_s * 1e9);
    }
    const double u = rng_.uniform_double();
    const auto rank = static_cast<std::size_t>(
        std::upper_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    a.row = rank_to_row_[std::min(rank, rank_to_row_.size() - 1)];
  }
  return trace;
}

std::uint64_t fnv1a(const void* data, std::size_t bytes, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t trace_hash(const std::vector<Arrival>& trace) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const Arrival& a : trace) {
    h = fnv1a(&a.due_ns, sizeof(a.due_ns), h);
    h = fnv1a(&a.row, sizeof(a.row), h);
  }
  return h;
}

// ---- host and process readings ---------------------------------------------

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

CpuJiffies read_cpu_jiffies() {
  CpuJiffies j;
  std::ifstream in("/proc/stat");
  std::string label;
  if (!(in >> label) || label != "cpu") return j;
  // user nice system idle iowait irq softirq steal (guest fields are already
  // inside user/nice and are not added again).
  std::uint64_t field = 0;
  for (int i = 0; i < 8 && (in >> field); ++i) {
    j.total += field;
    if (i == 7) j.steal = field;
  }
  return j;
}

double steal_share(const CpuJiffies& before, const CpuJiffies& after) {
  if (after.total <= before.total) return 0.0;
  return static_cast<double>(after.steal - before.steal) /
         static_cast<double>(after.total - before.total);
}

SleepProbe::SleepProbe(int period_us) : period_us_(period_us) {
  thread_ = std::thread([this] {
    const auto period = std::chrono::microseconds(period_us_);
    auto due = Clock::now() + period;
    while (!stop_.load(std::memory_order_relaxed)) {
      std::this_thread::sleep_until(due);
      const auto late = Clock::now() - due;
      lateness_us_.push_back(
          std::chrono::duration<double, std::micro>(late).count());
      due = Clock::now() + period;
    }
  });
}

SleepProbe::~SleepProbe() { stop(); }

std::vector<double> SleepProbe::stop() {
  stop_.store(true, std::memory_order_relaxed);
  if (thread_.joinable()) thread_.join();
  return lateness_us_;
}

// ---- metrics ---------------------------------------------------------------

const std::vector<MetricSpec>& metric_table() {
  constexpr MetricKind E = MetricKind::kEndToEnd;
  constexpr MetricKind L = MetricKind::kPerLayer;
  static const std::vector<MetricSpec> table{
      {"setup_s", "s", E},
      {"rows_per_s.dense", "1/s", E},
      {"rows_per_s.csr", "1/s", E},
      {"rows_per_s.compact", "1/s", E},
      {"rows_per_s.int8", "1/s", E},
      {"cpu_us_per_row", "us", E},
      {"peak_rss_mb", "MiB", E},

      // serve_zipf latency from each request's due time, sat throughput and
      // train_ticket wall time. Whole-stack numbers, listed here because host
      // steal keeps them from holding a bound (perfbench/README.md); every
      // run still prints them.
      {"p50_ms.r1000", "ms", L},
      {"p99_ms.r1000", "ms", L},
      {"p50_ms.r4000", "ms", L},
      {"rows_per_s", "1/s", L},
      {"ticket_s", "s", L},
      {"net.self_us.p50", "us", L},
      {"net.protocol_errors", "count", L},
      {"net.responses", "count", L},
      {"serving.submit_us.p50", "us", L},
      {"serving.ready_us.p50", "us", L},
      {"serving.ready_us.p99", "us", L},
      {"serving.rows_per_batch", "rows", L},
      {"serving.rejected", "count", L},
      {"cache.hit_share", "share", L},
      {"cache.evicted_rows", "count", L},
      {"cache.lookup_ns", "ns", L},
      {"registry.publish_ms", "ms", L},
      {"registry.compile_ms", "ms", L},
      {"engine.run_rows_us.b1", "us", L},
      {"engine.run_rows_us.b16", "us", L},
      {"engine.dense.gflops", "GFLOP/s", L},
      {"engine.csr.gflops", "GFLOP/s", L},
      {"engine.compact.gflops", "GFLOP/s", L},
      {"engine.int8.gflops", "GFLOP/s", L},
      {"engine.dense.weight_mb", "MiB", L},
      {"engine.csr.weight_mb", "MiB", L},
      {"engine.compact.weight_mb", "MiB", L},
      {"engine.int8.weight_mb", "MiB", L},
      {"engine.int8.solo_mismatch_rows", "count", L},
      {"linalg.conv_fwd_gflops", "GFLOP/s", L},
      {"linalg.conv_fwd_sparse_gflops", "GFLOP/s", L},
      {"linalg.conv_dgrad_gflops", "GFLOP/s", L},
      {"linalg.conv_wgrad_gflops", "GFLOP/s", L},
      {"linalg.gemm_gflops.1t", "GFLOP/s", L},
      {"linalg.gemm_gflops.4t", "GFLOP/s", L},
      {"sched.spawn_wait_us.p50", "us", L},
      {"sched.spawn_wait_us.p99", "us", L},
      {"attack.pgd_ms", "ms", L},
      {"nn.step_ms", "ms", L},
      {"train.pretrain_s", "s", L},
      {"prune.omp_ms", "ms", L},
      {"transfer.finetune_s", "s", L},
      {"transfer.top1", "share", L},
      {"train.weights_fp", "hash", L},
  };
  return table;
}

void Metrics::set(const std::string& name, double value) {
  values_[name] = value;
}

bool Metrics::has(const std::string& name) const {
  return values_.count(name) != 0;
}

double Metrics::get(const std::string& name) const {
  const auto it = values_.find(name);
  if (it == values_.end()) throw std::out_of_range("no metric " + name);
  return it->second;
}

std::string format_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string result_json(const OpCounts& ops, const Metrics& metrics,
                        MetricKind kind) {
  std::ostringstream out;
  out << "{\"correct\": " << (ops.correct ? "true" : "false")
      << ", \"attempted\": " << ops.attempted << ", \"failed\": " << ops.failed
      << ", \"metrics\": {";
  bool first = true;
  for (const MetricSpec& spec : metric_table()) {
    if (spec.kind != kind) continue;
    if (!metrics.has(spec.name)) {
      throw std::logic_error(std::string("metric not measured: ") + spec.name);
    }
    out << (first ? "" : ", ") << '"' << spec.name << "\": {\"value\": "
        << format_number(metrics.get(spec.name)) << ", \"unit\": \""
        << spec.unit << "\"}";
    first = false;
  }
  out << "}}";
  return out.str();
}

}  // namespace perfbench
