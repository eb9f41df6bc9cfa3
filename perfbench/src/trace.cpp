#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

#include "harness.hpp"

namespace perfbench {

namespace {

std::atomic<std::uint64_t> g_tracer_serial{1};

struct LocalCache {
  std::uint64_t serial = 0;
  void* buffer = nullptr;
};
thread_local LocalCache t_cache;

}  // namespace

Tracer::Tracer(bool enabled)
    : enabled_(enabled), serial_(g_tracer_serial.fetch_add(1)) {}

Tracer::Buffer& Tracer::local() {
  if (t_cache.serial != serial_) {
    auto buffer = std::make_unique<Buffer>();
    std::lock_guard<std::mutex> lock(buffers_mutex_);
    buffer->tid = static_cast<int>(buffers_.size()) + 1;
    buffer->spans.reserve(4096);
    t_cache.serial = serial_;
    t_cache.buffer = buffer.get();
    buffers_.push_back(std::move(buffer));
  }
  return *static_cast<Buffer*>(t_cache.buffer);
}

Tracer::Scope::Scope(Tracer& tracer, const char* name, std::uint64_t id,
                     double work)
    : tracer_(tracer), name_(name), id_(id), work_(work) {
  if (!tracer_.enabled_) return;
  Buffer& b = tracer_.local();
  Span s;
  s.name = name_;
  s.parent = b.open.empty() ? -1 : b.open.back();
  s.tid = b.tid;
  index_ = static_cast<std::int64_t>(b.spans.size());
  b.spans.push_back(s);
  b.open.push_back(index_);
  start_ns_ = now_ns();
}

Tracer::Scope::~Scope() {
  if (index_ < 0) return;
  const std::int64_t end = now_ns();
  Buffer& b = tracer_.local();
  Span& s = b.spans[static_cast<std::size_t>(index_)];
  s.start_ns = start_ns_;
  s.end_ns = end;
  s.id = id_;
  s.work = work_;
  b.open.pop_back();
}

void Tracer::record(const char* name, std::int64_t start_ns,
                    std::int64_t end_ns, std::uint64_t id, double work) {
  if (!enabled_) return;
  Buffer& b = local();
  Span s;
  s.name = name;
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  s.parent = b.open.empty() ? -1 : b.open.back();
  s.id = id;
  s.work = work;
  s.tid = b.tid;
  b.spans.push_back(s);
}

std::vector<Span> Tracer::collect() const {
  std::lock_guard<std::mutex> lock(buffers_mutex_);
  std::vector<Span> all;
  for (const auto& b : buffers_) {
    const auto offset = static_cast<std::int64_t>(all.size());
    for (Span s : b->spans) {
      if (s.parent >= 0) s.parent += offset;
      all.push_back(s);
    }
  }
  return all;
}

std::vector<double> span_durations_ns(const std::vector<Span>& spans,
                                      const std::string& name) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (name == s.name) out.push_back(s.dur_ns());
  }
  return out;
}

double work_per_second(const std::vector<Span>& spans,
                       const std::string& name) {
  double work = 0.0;
  double ns = 0.0;
  for (const Span& s : spans) {
    if (name != s.name) continue;
    work += s.work;
    ns += s.dur_ns();
  }
  return ns > 0.0 ? work / (ns * 1e-9) : 0.0;
}

std::vector<std::string> self_time_table(const std::vector<Span>& spans) {
  std::vector<double> child_ns(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (s.parent >= 0) child_ns[static_cast<std::size_t>(s.parent)] += s.dur_ns();
  }
  struct Row {
    std::int64_t count = 0;
    double total_ns = 0.0;
    double self_ns = 0.0;
  };
  std::map<std::string, Row> rows;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::string name = spans[i].name;
    Row& r = rows[name.substr(0, name.find('.'))];
    r.count += 1;
    r.total_ns += spans[i].dur_ns();
    r.self_ns += std::max(0.0, spans[i].dur_ns() - child_ns[i]);
  }
  std::vector<std::string> lines;
  char line[160];
  std::snprintf(line, sizeof(line), "%-10s %10s %12s %12s", "layer", "spans",
                "total_ms", "self_ms");
  lines.emplace_back(line);
  for (const auto& [layer, r] : rows) {
    std::snprintf(line, sizeof(line), "%-10s %10lld %12.3f %12.3f",
                  layer.c_str(), static_cast<long long>(r.count),
                  r.total_ns * 1e-6, r.self_ns * 1e-6);
    lines.emplace_back(line);
  }
  return lines;
}

bool write_chrome_trace(const std::string& path,
                        const std::vector<Span>& spans) {
  std::ofstream out(path);
  if (!out) return false;
  const std::int64_t t0 =
      spans.empty() ? 0
                    : std::min_element(spans.begin(), spans.end(),
                                       [](const Span& a, const Span& b) {
                                         return a.start_ns < b.start_ns;
                                       })->start_ns;
  out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << (i == 0 ? "\n" : ",\n") << "{\"name\":\"" << s.name
        << "\",\"cat\":\"" << std::string(s.name).substr(0, std::string(s.name).find('.'))
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.tid
        << ",\"ts\":" << format_number(static_cast<double>(s.start_ns - t0) * 1e-3)
        << ",\"dur\":" << format_number(s.dur_ns() * 1e-3)
        << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"work\":" << format_number(s.work) << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
