// serve_zipf: 1-row PREDICT frames over loopback TCP into an in-process
// net::InferenceServer -> Registry -> Server -> Session, serving the 90%
// sparse CSR micro-r18 with an ARC prediction cache. Phases: an untimed
// warm-up, open loop at 1000 and 4000 rows/s (latency timed from each
// request's due time), and a closed loop with 32 requests in flight.
//
// The load generator speaks the wire protocol itself (net/protocol.hpp
// encode/decode helpers over a raw socket) because net::Client blocks and
// cannot send on a schedule: one sender thread follows the trace, one
// receiver thread matches replies in order and checks every logit bitwise
// against the row's solo Session::predict.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <future>
#include <limits>
#include <ostream>
#include <semaphore>
#include <stdexcept>
#include <thread>

#include "core/checkpoint_store.hpp"
#include "engine/engine.hpp"
#include "models/resnet.hpp"
#include "net/net.hpp"
#include "net/protocol.hpp"
#include "prune/baselines.hpp"
#include "registry/registry.hpp"
#include "sections.hpp"
#include "serving/cache.hpp"
#include "serving/serving.hpp"

namespace perfbench {
namespace {

constexpr std::int32_t kPool = 4096;
constexpr double kZipfS = 1.1;
constexpr std::int64_t kRowFloats = 3 * 16 * 16;
constexpr int kClasses = 10;
constexpr int kWindow = 32;
constexpr std::int64_t kWarmupRequests = 3000;
constexpr std::int64_t kB1Calls = 2000;
constexpr std::int64_t kB16Calls = 500;
constexpr std::size_t kSliceReplies = 1024;  ///< sat throughput window
/// Floor on each round's sat phase, so short (companion) budgets still give
/// the closed loop time to fill and several windows to take a median over.
constexpr double kMinSatSeconds = 0.75;
const char* const kRef = "r18";

rt::serving::ServerOptions server_options() {
  rt::serving::ServerOptions opt;
  opt.shards = 1;
  opt.max_batch = 16;
  opt.max_delay_ms = 0.1;
  // Admission is not under test: a rejection here would mean a stall of
  // seconds, so the bound is far above any queue the phases build.
  opt.queue_capacity_rows = 1 << 16;
  opt.cache.capacity_rows = kPool / 10;
  opt.cache.policy = rt::serving::CachePolicy::kArc;
  return opt;
}

Clock::time_point at_ns(std::int64_t ns) {
  return Clock::time_point(std::chrono::nanoseconds(ns));
}

/// Blocking loopback socket with a buffered frame reader.
class WireConn {
 public:
  explicit WireConn(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("socket() failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd_);
      throw std::runtime_error("connect() to the inference server failed");
    }
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    // A reply that takes this long means the server hung; the receiver
    // then gives up instead of blocking the run forever.
    timeval tv{};
    tv.tv_sec = 20;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    buf_.resize(1 << 16);
  }
  ~WireConn() { ::close(fd_); }
  WireConn(const WireConn&) = delete;
  WireConn& operator=(const WireConn&) = delete;

  bool send_frame(std::uint64_t request_id,
                  const std::vector<std::uint8_t>& body) {
    rt::net::FrameHeader h;
    h.kind = static_cast<std::uint8_t>(rt::net::Verb::kPredict);
    h.request_id = request_id;
    h.body_len = static_cast<std::uint32_t>(body.size());
    header_.clear();
    rt::net::encode_header(h, header_);
    iovec iov[2] = {{header_.data(), header_.size()},
                    {const_cast<std::uint8_t*>(body.data()), body.size()}};
    std::size_t left = header_.size() + body.size();
    int first = 0;
    while (left > 0) {
      msghdr msg{};
      msg.msg_iov = iov + first;
      msg.msg_iovlen = static_cast<std::size_t>(2 - first);
      const ssize_t n = ::sendmsg(fd_, &msg, MSG_NOSIGNAL);
      if (n <= 0) return false;
      left -= static_cast<std::size_t>(n);
      auto done = static_cast<std::size_t>(n);
      while (first < 2 && done >= iov[first].iov_len) {
        done -= iov[first].iov_len;
        ++first;
      }
      if (first < 2) {
        iov[first].iov_base = static_cast<std::uint8_t*>(iov[first].iov_base) + done;
        iov[first].iov_len -= done;
      }
    }
    return true;
  }

  bool read_frame(rt::net::FrameHeader* header,
                  std::vector<std::uint8_t>* body) {
    if (!fill(rt::net::kHeaderBytes)) return false;
    if (rt::net::decode_header(buf_.data() + pos_, rt::net::kDefaultMaxBodyBytes,
                               header) != rt::net::HeaderDecode::kOk) {
      return false;
    }
    pos_ += rt::net::kHeaderBytes;
    if (!fill(header->body_len)) return false;
    body->assign(buf_.begin() + static_cast<std::ptrdiff_t>(pos_),
                 buf_.begin() + static_cast<std::ptrdiff_t>(pos_ + header->body_len));
    pos_ += header->body_len;
    return true;
  }

 private:
  bool fill(std::size_t need) {
    if (len_ - pos_ >= need) return true;
    std::memmove(buf_.data(), buf_.data() + pos_, len_ - pos_);
    len_ -= pos_;
    pos_ = 0;
    if (need > buf_.size()) buf_.resize(need);
    while (len_ < need) {
      const ssize_t n = ::recv(fd_, buf_.data() + len_, buf_.size() - len_, 0);
      if (n <= 0) return false;
      len_ += static_cast<std::size_t>(n);
    }
    return true;
  }

  int fd_ = -1;
  std::vector<std::uint8_t> header_;
  std::vector<std::uint8_t> buf_;
  std::size_t pos_ = 0;
  std::size_t len_ = 0;
};

/// What one load loop saw: per request, when it was due and when its reply
/// arrived (absolute ns), and whether the reply was correct.
struct LoopResult {
  std::int64_t t0 = 0;
  std::int64_t sent = 0;
  std::vector<std::int64_t> due;
  std::vector<std::int64_t> done;
  std::vector<char> good;
  std::vector<double> gen_late_us;  ///< open loop: issue time - due time
};

enum class Completion { kGood, kWrong, kBroken };

/// Drives `trace` from the calling thread while a second thread completes
/// requests in issue order. Open loop: request k is issued at its due time
/// regardless of replies. Closed loop: at most kWindow requests are in
/// flight, and issuing stops after `closed_s` seconds. issue(k, row) returns
/// false when the transport broke; complete(k, row) reports the reply.
template <typename Issue, typename Complete>
LoopResult run_loop(const std::vector<Arrival>& trace, bool open_loop,
                    double closed_s, Issue&& issue, Complete&& complete) {
  const std::size_t n = trace.size();
  LoopResult r;
  r.due.assign(n, 0);
  r.done.assign(n, 0);
  r.good.assign(n, 0);
  if (open_loop) r.gen_late_us.reserve(n);
  std::counting_semaphore<> issued(0);
  std::counting_semaphore<> window(kWindow);
  std::atomic<std::int64_t> final_count{-1};
  std::atomic<bool> broken{false};

  std::thread completer([&] {
    for (std::int64_t k = 0;; ++k) {
      issued.acquire();
      const std::int64_t fin = final_count.load(std::memory_order_acquire);
      if (fin >= 0 && k >= fin) break;
      const auto idx = static_cast<std::size_t>(k);
      const Completion c = complete(k, trace[idx].row);
      r.done[idx] = now_ns();
      if (c == Completion::kBroken) {
        broken.store(true);
        window.release(kWindow);
        break;
      }
      r.good[idx] = c == Completion::kGood ? 1 : 0;
      if (!open_loop) window.release();
    }
  });

  r.t0 = now_ns() + 1'000'000;  // 1 ms lead so request 0 is not born late
  const std::int64_t deadline =
      closed_s < 1e6 ? r.t0 + static_cast<std::int64_t>(closed_s * 1e9)
                     : std::numeric_limits<std::int64_t>::max();
  std::int64_t k = 0;
  for (; k < static_cast<std::int64_t>(n); ++k) {
    const auto idx = static_cast<std::size_t>(k);
    if (open_loop) {
      const std::int64_t target = r.t0 + trace[idx].due_ns;
      if (now_ns() < target) std::this_thread::sleep_until(at_ns(target));
    } else {
      window.acquire();
    }
    if (broken.load()) break;
    const std::int64_t t = now_ns();
    if (!open_loop && t > deadline) break;
    r.due[idx] = open_loop ? r.t0 + trace[idx].due_ns : t;
    if (open_loop) r.gen_late_us.push_back(1e-3 * static_cast<double>(t - r.due[idx]));
    if (!issue(k, trace[idx].row)) {
      broken.store(true);
      break;
    }
    issued.release();
  }
  final_count.store(k, std::memory_order_release);
  issued.release();
  completer.join();
  r.sent = k;
  return r;
}

/// One phase's totals over every round of a pass.
struct Phase {
  Phase(const char* phase_name, const char* span_name)
      : name(phase_name), span(span_name) {}
  const char* name;
  const char* span;  ///< static span name of its requests
  std::uint64_t trace_hash = 0xcbf29ce484222325ULL;  ///< over all rounds
  std::int64_t sent = 0;
  std::int64_t ok = 0;
  std::vector<double> latency_us;    ///< open loop: reply time - due time
  std::vector<double> gen_late_us;   ///< open loop: send time - due time
  std::vector<double> window_rates;  ///< closed loop: replies/s per window
  double cpu_s = 0.0;
  std::uint64_t batches = 0;
  std::uint64_t batched_rows = 0;
  std::uint64_t rejected = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evicted = 0;
};

class ServeZipf final : public Section {
 public:
  explicit ServeZipf(const SectionContext& ctx)
      : ctx_(ctx),
        registry_(registry_options()),
        gen_(ctx.seed, /*stream=*/1, kPool, kZipfS) {
    make_rows();
    rt::Rng model_rng(kModelSeed);
    auto model = rt::make_micro_resnet18(kClasses, model_rng);
    rt::layerwise_magnitude_prune(*model, 0.9f, rt::Granularity::kElement);
    model->set_training(false);
    {
      Tracer::Scope span(ctx_.tracer, "registry.publish", 0, 1);
      registry_.publish(kRef, *model);
    }
    {
      Tracer::Scope span(ctx_.tracer, "registry.compile", 0, 1);
      plan_ = registry_.compiled(std::string(kRef) + "@1", compile_);
    }
    server_ = &registry_.serve(std::string(kRef) + "@1", server_options(),
                               compile_);
    rt::net::NetOptions nopt;
    nopt.serving = server_options();
    nopt.compile = compile_;
    front_ = std::make_unique<rt::net::InferenceServer>(registry_, nopt);
    conn_ = std::make_unique<WireConn>(front_->port());
    make_references();
  }

  void run_round(double budget_s) override;
  void finish() override;
  double cpu_us_per_row() const override {
    return 1e6 * r4000_.cpu_s / static_cast<double>(std::max<std::int64_t>(r4000_.sent, 1));
  }
  void probes() override;
  void per_layer(const std::vector<Span>& spans) override;

 private:
  static rt::registry::RegistryOptions registry_options() {
    rt::registry::RegistryOptions opt;
    opt.cache_root = "";  // hermetic: nothing is written outside memory
    return opt;
  }
  void make_rows();
  void make_references();
  bool matches(const rt::Tensor& logits, std::int32_t row) const {
    return logits.ndim() == 2 && logits.dim(0) == 1 &&
           logits.dim(1) == kClasses &&
           std::memcmp(logits.data(),
                       refs_.data() + static_cast<std::size_t>(row) * kClasses,
                       sizeof(float) * kClasses) == 0;
  }
  rt::Tensor row_tensor(std::int32_t row) const {
    rt::Tensor t({1, 3, 16, 16});
    std::memcpy(t.data(), rows_.data() + static_cast<std::size_t>(row) * kRowFloats,
                sizeof(float) * kRowFloats);
    return t;
  }
  /// Sends `trace` over the wire and adds the outcome to `phase`. Request
  /// k's span id is id_base + k.
  void wire_phase(Phase& phase, const std::vector<Arrival>& trace,
                  bool open_loop, double closed_s, std::uint64_t id_base);
  void report_phase(const Phase& p);

  SectionContext ctx_;
  rt::CompileOptions compile_;
  std::vector<float> rows_;
  std::vector<float> refs_;
  std::vector<std::vector<std::uint8_t>> bodies_;
  rt::registry::Registry registry_;
  std::shared_ptr<const rt::CompiledTicket> plan_;
  rt::serving::Server* server_ = nullptr;
  std::unique_ptr<rt::net::InferenceServer> front_;
  std::unique_ptr<WireConn> conn_;
  std::uint64_t next_id_ = 1;

  TrafficGen gen_;
  int round_ = 0;
  Phase warmup_{"warmup", "net.request.warmup"};
  Phase r1000_{"r1000", "net.request.r1000"};
  Phase r4000_{"r4000", "net.request.r4000"};
  Phase sat_{"sat", "net.request.sat"};
  // Kept for the in-process replay and the cache replay in probes().
  std::vector<Arrival> warmup_trace_;
  std::vector<std::vector<Arrival>> r1000_traces_;
  std::vector<Arrival> r4000_keys_;
};

void ServeZipf::make_rows() {
  rt::Pcg32 g(ctx_.seed, /*stream=*/2);
  rows_.resize(static_cast<std::size_t>(kPool) * kRowFloats);
  for (float& v : rows_) v = static_cast<float>(g.uniform_double());
  bodies_.resize(kPool);
  for (std::int32_t r = 0; r < kPool; ++r) {
    rt::net::encode_predict_body(kRef, 0, row_tensor(r),
                                 bodies_[static_cast<std::size_t>(r)]);
  }
}

void ServeZipf::make_references() {
  // Solo predictions: every pool row alone through a batch-1 Session over
  // the served plan, split across a few threads (Session is thread-safe).
  rt::Session solo(plan_, 1);
  refs_.assign(static_cast<std::size_t>(kPool) * kClasses, 0.0f);
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::int32_t r = t; r < kPool; r += kThreads) {
        const rt::Tensor out = solo.predict(row_tensor(r));
        std::memcpy(refs_.data() + static_cast<std::size_t>(r) * kClasses,
                    out.data(), sizeof(float) * kClasses);
      }
    });
  }
  for (std::thread& t : threads) t.join();
}

void ServeZipf::wire_phase(Phase& phase, const std::vector<Arrival>& trace,
                           bool open_loop, double closed_s,
                           std::uint64_t id_base) {
  const rt::serving::ServerStats stats0 = server_->stats();
  const rt::serving::CacheStats cache0 = server_->cache_stats();
  const double cpu0 = process_cpu_s();
  const std::uint64_t first_id = next_id_;
  std::vector<std::uint8_t> body;
  LoopResult r = run_loop(
      trace, open_loop, closed_s,
      [&](std::int64_t k, std::int32_t row) {
        return conn_->send_frame(first_id + static_cast<std::uint64_t>(k),
                                 bodies_[static_cast<std::size_t>(row)]);
      },
      [&](std::int64_t k, std::int32_t row) {
        rt::net::FrameHeader h;
        if (!conn_->read_frame(&h, &body)) return Completion::kBroken;
        if (h.kind != static_cast<std::uint8_t>(rt::net::Status::kOk) ||
            h.request_id != first_id + static_cast<std::uint64_t>(k)) {
          return Completion::kWrong;
        }
        rt::Tensor logits;
        std::string error;
        if (!rt::net::decode_logits_body(body.data(), body.size(), &logits,
                                         &error)) {
          return Completion::kWrong;
        }
        return matches(logits, row) ? Completion::kGood : Completion::kWrong;
      });
  phase.cpu_s += process_cpu_s() - cpu0;
  next_id_ += static_cast<std::uint64_t>(r.sent);
  const rt::serving::ServerStats stats1 = server_->stats();
  const rt::serving::CacheStats cache1 = server_->cache_stats();
  phase.batches += stats1.batches - stats0.batches;
  phase.batched_rows += stats1.batched_rows - stats0.batched_rows;
  phase.rejected += stats1.rejected_requests - stats0.rejected_requests;
  phase.hits += cache1.hit_rows - cache0.hit_rows;
  phase.misses += cache1.miss_rows - cache0.miss_rows;
  phase.evicted += cache1.evicted_rows - cache0.evicted_rows;
  const std::uint64_t h = trace_hash(trace);
  phase.trace_hash = fnv1a(&h, sizeof(h), phase.trace_hash);

  ctx_.ops.attempted += r.sent;
  phase.sent += r.sent;
  for (std::int64_t k = 0; k < r.sent; ++k) {
    const auto i = static_cast<std::size_t>(k);
    phase.ok += r.good[i];
    ctx_.ops.failed += r.good[i] ? 0 : 1;
    if (open_loop) {
      phase.latency_us.push_back(1e-3 * static_cast<double>(r.done[i] - r.due[i]));
    }
    ctx_.tracer.record(phase.span, r.due[i], r.done[i],
                       id_base + static_cast<std::uint64_t>(k), 1.0);
  }
  phase.gen_late_us.insert(phase.gen_late_us.end(), r.gen_late_us.begin(),
                           r.gen_late_us.end());
  // Closed loop: throughput over consecutive windows of kSliceReplies
  // replies (replies arrive in order, so done[] is non-decreasing).
  if (!open_loop) {
    for (std::size_t i = 0; i + kSliceReplies < static_cast<std::size_t>(r.sent);
         i += kSliceReplies) {
      const std::int64_t dt = r.done[i + kSliceReplies] - r.done[i];
      phase.window_rates.push_back(
          static_cast<double>(kSliceReplies) /
          (1e-9 * static_cast<double>(std::max<std::int64_t>(dt, 1))));
    }
  }
}

void ServeZipf::report_phase(const Phase& p) {
  const auto share = [](std::uint64_t a, std::uint64_t b) {
    return b ? static_cast<double>(a) / static_cast<double>(b) : 0.0;
  };
  ctx_.log << "serve_zipf." << p.name << ": trace_hash=" << std::hex
           << p.trace_hash << std::dec << " sent=" << p.sent << " ok=" << p.ok
           << " failed=" << (p.sent - p.ok) << " cpu_us_per_row="
           << format_number(1e6 * p.cpu_s / std::max<double>(1.0, static_cast<double>(p.sent)))
           << " rows_per_batch=" << format_number(share(p.batched_rows, p.batches))
           << " cache_hit_share=" << format_number(share(p.hits, p.hits + p.misses))
           << '\n';
  if (!p.latency_us.empty()) {
    const Summary late = summarize(p.gen_late_us);
    ctx_.log << "serve_zipf." << p.name << ": latency_us "
             << describe(summarize(p.latency_us)) << " | generator_late_us p99="
             << (late.has_p99 ? format_number(late.p99) : "n/a")
             << " max=" << format_number(late.max) << '\n';
  }
  if (!p.window_rates.empty()) {
    ctx_.log << "serve_zipf." << p.name << ": rows_per_s per " << kSliceReplies
             << "-reply window " << deciles(p.window_rates) << '\n';
  }
}

void ServeZipf::run_round(double budget_s) {
  if (round_ == 0) {
    warmup_trace_ = gen_.generate(kWarmupRequests, 0.0);
    wire_phase(warmup_, warmup_trace_, false,
               std::numeric_limits<double>::infinity(), 0);
  }
  const std::uint64_t id_base = static_cast<std::uint64_t>(round_ + 1) << 32;
  const double open_s = 0.35 * budget_s;
  const double sat_s = std::max(0.30 * budget_s, kMinSatSeconds);
  // At least 1000 r1000 requests per pass, so its p99 has 10 samples beyond.
  r1000_traces_.push_back(gen_.generate(
      std::max<std::int64_t>(1000 / kRounds, static_cast<std::int64_t>(1000.0 * open_s)),
      1000.0));
  const std::vector<Arrival> r4000 =
      gen_.generate(static_cast<std::int64_t>(4000.0 * open_s), 4000.0);
  // More rows than the closed loop can send in sat_s; it stops on time.
  const std::vector<Arrival> sat =
      gen_.generate(static_cast<std::int64_t>(20000.0 * sat_s) + 1000, 0.0);
  wire_phase(r1000_, r1000_traces_.back(), true, 0.0, id_base);
  wire_phase(r4000_, r4000, true, 0.0, id_base);
  wire_phase(sat_, sat, false, sat_s, id_base);
  r4000_keys_.insert(r4000_keys_.end(), r4000.begin(), r4000.end());
  ++round_;
}

void ServeZipf::finish() {
  for (const Phase* p : {&warmup_, &r1000_, &r4000_, &sat_}) report_phase(*p);
  if (r1000_.latency_us.empty() || r4000_.latency_us.empty() ||
      sat_.window_rates.empty()) {
    ctx_.ops.correct = false;
    return;
  }
  const Summary lat1 = summarize(r1000_.latency_us);
  ctx_.metrics.set("p50_ms.r1000", 1e-3 * lat1.p50);
  ctx_.metrics.set("p99_ms.r1000", 1e-3 * lat1.p99);
  ctx_.metrics.set("p50_ms.r4000", 1e-3 * median(r4000_.latency_us));
  ctx_.metrics.set("rows_per_s", median(sat_.window_rates));
}

void ServeZipf::probes() {
  // In-process replay: the warm-up trace, then each round's r1000 trace
  // (same span ids as on the wire), into a fresh Server with the served plan
  // and identical options, timing the submit call and submit -> ready.
  {
    rt::serving::Server replay(plan_, server_options());
    for (std::size_t pass = 0; pass <= r1000_traces_.size(); ++pass) {
      const bool timed = pass > 0;
      const std::vector<Arrival>& trace = timed ? r1000_traces_[pass - 1] : warmup_trace_;
      const std::uint64_t id_base = static_cast<std::uint64_t>(pass) << 32;
      std::vector<std::future<rt::Tensor>> futures(trace.size());
      std::vector<std::int64_t> starts(trace.size(), 0);
      LoopResult r = run_loop(
          trace, timed, std::numeric_limits<double>::infinity(),
          [&](std::int64_t k, std::int32_t row) {
            rt::Tensor x = row_tensor(row);
            const auto i = static_cast<std::size_t>(k);
            starts[i] = now_ns();
            Tracer::Scope span(ctx_.tracer, timed ? "serving.submit" : "serving.submit.warmup",
                               id_base + static_cast<std::uint64_t>(k), 1.0);
            futures[i] = replay.submit(std::move(x));
            return true;
          },
          [&](std::int64_t k, std::int32_t row) {
            try {
              const rt::Tensor out = futures[static_cast<std::size_t>(k)].get();
              return matches(out, row) ? Completion::kGood : Completion::kWrong;
            } catch (const std::exception&) {
              return Completion::kWrong;
            }
          });
      for (std::int64_t k = 0; k < r.sent; ++k) {
        const auto i = static_cast<std::size_t>(k);
        ctx_.ops.attempted += 1;
        ctx_.ops.failed += r.good[i] ? 0 : 1;
        if (timed) {
          ctx_.tracer.record("serving.ready", starts[i], r.done[i],
                             id_base + static_cast<std::uint64_t>(k), 1.0);
        }
      }
    }
  }

  // Standalone cache with the server's options, replaying the trace keys.
  {
    const rt::serving::CacheOptions copt = server_options().cache;
    rt::serving::PredictionCache cache(copt, kClasses);
    std::vector<std::uint64_t> keys;
    std::vector<const std::vector<Arrival>*> traces{&warmup_trace_};
    for (const auto& t : r1000_traces_) traces.push_back(&t);
    traces.push_back(&r4000_keys_);
    for (const std::vector<Arrival>* trace : traces) {
      for (const Arrival& a : *trace) {
        keys.push_back(rt::serving::cache_key(
            rt::row_fingerprint(rows_.data() + static_cast<std::size_t>(a.row) * kRowFloats,
                                kRowFloats),
            1));
      }
    }
    std::vector<float> out(kClasses);
    const std::vector<float> value(kClasses, 1.0f);
    Tracer::Scope span(ctx_.tracer, "cache.replay", 0, static_cast<double>(keys.size()));
    for (const std::uint64_t key : keys) {
      if (!cache.lookup(key, out.data())) cache.insert(key, value.data());
    }
  }

  // Session::run_rows on the served plan at batch 1 and 16.
  {
    rt::Session session(plan_, 16);
    std::vector<float> logits(16 * kClasses);
    for (std::int64_t i = 0; i < kB1Calls; ++i) {
      const float* x = rows_.data() + static_cast<std::size_t>(i % kPool) * kRowFloats;
      Tracer::Scope span(ctx_.tracer, "engine.run_rows.b1", static_cast<std::uint64_t>(i), 1.0);
      session.run_rows(x, 1, logits.data());
    }
    for (std::int64_t i = 0; i < kB16Calls; ++i) {
      const float* x = rows_.data() + static_cast<std::size_t>((16 * i) % (kPool - 16)) * kRowFloats;
      Tracer::Scope span(ctx_.tracer, "engine.run_rows.b16", static_cast<std::uint64_t>(i), 16.0);
      session.run_rows(x, 16, logits.data());
    }
  }
}

void ServeZipf::per_layer(const std::vector<Span>& spans) {
  Metrics& m = ctx_.metrics;
  const auto p50_us = [&](const char* name) {
    const std::vector<double> d = span_durations_ns(spans, name);
    return d.empty() ? 0.0 : 1e-3 * median(d);
  };
  const Summary ready = summarize(span_durations_ns(spans, "serving.ready"));
  m.set("serving.ready_us.p50", 1e-3 * ready.p50);
  m.set("serving.ready_us.p99", 1e-3 * ready.p99);
  m.set("serving.submit_us.p50", p50_us("serving.submit"));
  m.set("net.self_us.p50", p50_us("net.request.r1000") - 1e-3 * ready.p50);
  const rt::net::NetCounters net = front_->counters();
  m.set("net.protocol_errors", static_cast<double>(net.protocol_errors));
  m.set("net.responses", static_cast<double>(net.responses));
  // Serving and cache counters over the timed phases.
  std::uint64_t batches = 0, batched = 0, rejected = 0, hits = 0, misses = 0, evicted = 0;
  for (const Phase* p : {&r1000_, &r4000_, &sat_}) {
    batches += p->batches;
    batched += p->batched_rows;
    rejected += p->rejected;
    hits += p->hits;
    misses += p->misses;
    evicted += p->evicted;
  }
  m.set("serving.rows_per_batch",
        batches ? static_cast<double>(batched) / static_cast<double>(batches) : 0.0);
  m.set("serving.rejected", static_cast<double>(rejected));
  m.set("cache.hit_share",
        hits + misses ? static_cast<double>(hits) / static_cast<double>(hits + misses) : 0.0);
  m.set("cache.evicted_rows", static_cast<double>(evicted));
  const std::vector<double> replay = span_durations_ns(spans, "cache.replay");
  double lookups = 0.0;
  for (const Span& s : spans) {
    if (std::string("cache.replay") == s.name) lookups += s.work;
  }
  double replay_ns = 0.0;
  for (const double d : replay) replay_ns += d;
  m.set("cache.lookup_ns", lookups > 0.0 ? replay_ns / lookups : 0.0);
  m.set("registry.publish_ms", 1e-3 * p50_us("registry.publish"));
  m.set("registry.compile_ms", 1e-3 * p50_us("registry.compile"));
  m.set("engine.run_rows_us.b1", p50_us("engine.run_rows.b1"));
  m.set("engine.run_rows_us.b16", p50_us("engine.run_rows.b16"));
}

}  // namespace

std::unique_ptr<Section> make_serve_zipf(const SectionContext& ctx) {
  return std::make_unique<ServeZipf>(ctx);
}

}  // namespace perfbench
