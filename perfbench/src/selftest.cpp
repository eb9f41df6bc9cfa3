// perfbench self-test: trace replayability and the percentile rule. Exits
// non-zero on the first failed check. perfbench/run.py --selftest runs it
// and also checks the metric names against BENCHMARK.json.

#include <cstdlib>
#include <iostream>
#include <set>
#include <string>
#include <vector>

#include "harness.hpp"

namespace {

int g_failures = 0;

void check(bool ok, const std::string& what) {
  std::cout << (ok ? "ok   " : "FAIL ") << what << '\n';
  if (!ok) ++g_failures;
}

std::vector<double> ramp(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

}  // namespace

int main() {
  using namespace perfbench;

  // Replayable traffic: the trace is a pure function of (seed, stream).
  const auto trace = [](std::uint64_t seed) {
    TrafficGen gen(seed, 1, 4096, 1.1);
    std::vector<Arrival> a = gen.generate(2000, 1000.0);
    const std::vector<Arrival> b = gen.generate(500, 0.0);
    a.insert(a.end(), b.begin(), b.end());
    return a;
  };
  check(trace_hash(trace(7)) == trace_hash(trace(7)), "same seed, same trace hash");
  check(trace_hash(trace(7)) != trace_hash(trace(8)), "different seed, different trace hash");
  {
    const std::vector<Arrival> t = trace(7);
    bool monotone = true;
    for (std::size_t i = 1; i < 2000; ++i) monotone &= t[i].due_ns >= t[i - 1].due_ns;
    const double rate = 1999.0 / (1e-9 * static_cast<double>(t[1999].due_ns));
    check(monotone && rate > 900.0 && rate < 1100.0, "Poisson arrivals at ~1000/s");
    std::vector<int> hits(4096, 0);
    for (const Arrival& a : t) ++hits[static_cast<std::size_t>(a.row)];
    int hottest = 0;
    for (const int h : hits) hottest = std::max(hottest, h);
    // Zipf(1.1) over 4096 ranks puts ~12% of draws on rank 0.
    check(hottest > 200 && hottest < 420, "Zipf(1.1) hottest row share");
  }

  // Percentile rule: a percentile is reported only with >= 10 samples
  // beyond it.
  check(samples_beyond(1000, 0.99) == 10, "1000 samples: 10 beyond p99");
  check(summarize(ramp(1000)).has_p99, "p99 reported at n=1000");
  check(!summarize(ramp(999)).has_p99, "p99 absent at n=999");
  check(summarize(ramp(10000)).has_p999, "p99.9 reported at n=10000");
  check(!summarize(ramp(9999)).has_p999, "p99.9 absent at n=9999");
  {
    const Summary s = summarize(ramp(10000));
    check(s.p50 == 5000 && s.p99 == 9900 && s.p999 == 9990 && s.max == 10000,
          "nearest-rank values on 1..10000");
  }
  check(median({3, 1, 2}) == 2 && median({4, 1, 3, 2}) == 2.5, "median");

  std::set<std::string> names;
  for (const MetricSpec& spec : metric_table()) names.insert(spec.name);
  check(names.size() == metric_table().size(), "metric names are unique");

  std::cout << (g_failures == 0 ? "selftest passed" : "selftest FAILED") << '\n';
  return g_failures == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}
