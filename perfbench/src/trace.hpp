#pragma once
// perfbench spans: timed from outside the program, around each public call
// the benchmark makes into a layer. Spans live in per-thread memory buffers
// while a run records and are only collected, summarised and written (as
// Chrome trace-event JSON) after the run ends.

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";     ///< static string: "<layer>.<call>"
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;  ///< index into the collected list, -1 = root
  std::uint64_t id = 0;      ///< request / batch id shared across replays
  double work = 0.0;         ///< rows, flops or lookups the span covered
  int tid = 0;

  double dur_ns() const { return static_cast<double>(end_ns - start_ns); }
};

/// Per-run span recorder. A disabled tracer records nothing, so the untraced
/// passes pay one predictable branch per call site.
class Tracer {
 public:
  explicit Tracer(bool enabled);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// RAII span on the calling thread; spans opened inside it on the same
  /// thread become its children.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, std::uint64_t id, double work);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    void set_work(double work) { work_ = work; }

   private:
    Tracer& tracer_;
    const char* name_;
    std::uint64_t id_;
    double work_;
    std::int64_t start_ns_ = 0;
    std::int64_t index_ = -1;
  };

  /// Records a span timed elsewhere (e.g. a request sent on one thread and
  /// answered on another). Its parent is the calling thread's open span.
  void record(const char* name, std::int64_t start_ns, std::int64_t end_ns,
              std::uint64_t id = 0, double work = 0.0);

  /// Every span recorded so far with parents resolved to list indices.
  /// Call only after the recording threads have finished.
  std::vector<Span> collect() const;

 private:
  struct Buffer {
    int tid = 0;
    std::vector<Span> spans;
    std::vector<std::int64_t> open;  ///< stack of open span indices
  };
  Buffer& local();

  bool enabled_;
  std::uint64_t serial_;  ///< distinguishes tracers in thread-local caches
  mutable std::mutex buffers_mutex_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// Durations (ns) of every span called `name`.
std::vector<double> span_durations_ns(const std::vector<Span>& spans,
                                      const std::string& name);
/// Sum of `work` over spans called `name` divided by their summed seconds.
double work_per_second(const std::vector<Span>& spans, const std::string& name);

/// Per-layer table: for each layer (the name up to the first '.'), span
/// count, total time, and self time (span time not covered by its child
/// spans), as printable lines.
std::vector<std::string> self_time_table(const std::vector<Span>& spans);

/// Writes the spans as Chrome trace-event JSON ("X" complete events, times
/// in microseconds). Returns false if the file cannot be written.
bool write_chrome_trace(const std::string& path, const std::vector<Span>& spans);

}  // namespace perfbench
