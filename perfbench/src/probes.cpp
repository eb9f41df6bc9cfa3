// Kernel and scheduler probes that belong to no one workload: the plane
// conv kernels at the micro-r18's conv shapes (dense weights and 90%-zero
// weights), gemm_nn 512^3 on 1 and 4 scheduler lanes, and TaskGroup
// spawn+wait of an empty task from a non-worker thread.

#include <vector>

#include "common/rng.hpp"
#include "common/scheduler.hpp"
#include "linalg/conv.hpp"
#include "linalg/gemm.hpp"
#include "sections.hpp"

namespace perfbench {
namespace {

struct ConvShape {
  std::int64_t c_in, c_out, h, stride;
};

// The micro-r18 (stage widths 8/16/32/64) at a 16x16 input: stem, then
// each stage's first (possibly strided) conv and its steady-state conv.
constexpr ConvShape kShapes[] = {
    {3, 8, 16, 1},  {8, 8, 16, 1},  {8, 16, 16, 2}, {16, 16, 8, 1},
    {16, 32, 8, 2}, {32, 32, 4, 1}, {32, 64, 4, 2}, {64, 64, 2, 1},
};
constexpr int kPlanes = 16;   ///< planes per shape per sweep
constexpr int kSweeps = 6;    ///< sweeps over all shapes per kernel
constexpr std::int64_t kGemmN = 512;
constexpr int kGemmReps = 6;
constexpr int kSpawnReps = 4000;

std::vector<float> random_floats(std::size_t n, rt::Pcg32& g, float zero_share) {
  std::vector<float> v(n);
  for (float& x : v) {
    const double u = g.uniform_double();
    x = u < zero_share ? 0.0f : static_cast<float>(g.uniform_double() - 0.5);
  }
  return v;
}

enum class ConvKernel { kForward, kDgrad, kWgrad };

void conv_probe(Tracer& tracer, const char* span, ConvKernel kernel,
                float zero_share) {
  rt::Pcg32 g(17, 5);
  rt::ConvGeometry geo;  // 3x3, padding 1
  for (int sweep = 0; sweep < kSweeps; ++sweep) {
    for (const ConvShape& s : kShapes) {
      geo.stride = s.stride;
      const std::int64_t oh = geo.out_extent(s.h);
      const std::int64_t cols = s.c_in * geo.kernel * geo.kernel;
      const auto in_n = static_cast<std::size_t>(s.c_in * s.h * s.h);
      const auto out_n = static_cast<std::size_t>(s.c_out * oh * oh);
      const std::vector<float> w =
          random_floats(static_cast<std::size_t>(s.c_out * cols), g, zero_share);
      const std::vector<float> x = random_floats(in_n * kPlanes, g, 0.0f);
      const std::vector<float> gout = random_floats(out_n * kPlanes, g, 0.0f);
      std::vector<float> y(out_n * kPlanes);
      std::vector<float> dx(in_n * kPlanes, 0.0f);
      std::vector<float> dw(w.size(), 0.0f);
      rt::ConvKernelOpts opts;
      opts.weight_zero_fraction = zero_share;
      const double flops = 2.0 * static_cast<double>(s.c_out * cols * oh * oh) * kPlanes;
      Tracer::Scope scope(tracer, span, static_cast<std::uint64_t>(sweep), flops);
      for (int p = 0; p < kPlanes; ++p) {
        const auto ip = static_cast<std::size_t>(p) * in_n;
        const auto op = static_cast<std::size_t>(p) * out_n;
        switch (kernel) {
          case ConvKernel::kForward:
            rt::conv2d_forward_plane(x.data() + ip, s.c_in, s.h, s.h, geo,
                                     w.data(), s.c_out, y.data() + op, nullptr,
                                     false, opts);
            break;
          case ConvKernel::kDgrad:
            rt::conv2d_dgrad_plane(w.data(), s.c_out, gout.data() + op, s.c_in,
                                   s.h, s.h, geo, dx.data() + ip, opts);
            break;
          case ConvKernel::kWgrad:
            rt::conv2d_wgrad_plane(gout.data() + op, x.data() + ip, s.c_in, s.h,
                                   s.h, geo, s.c_out, dw.data(), opts);
            break;
        }
      }
    }
  }
}

void gemm_probe(Tracer& tracer, const char* span, int lanes) {
  rt::Pcg32 g(23, 6);
  const auto n = static_cast<std::size_t>(kGemmN * kGemmN);
  const std::vector<float> a = random_floats(n, g, 0.0f);
  const std::vector<float> b = random_floats(n, g, 0.0f);
  std::vector<float> c(n);
  rt::Scheduler sched(lanes);
  rt::SchedulerScope scope(sched);
  const double flops = 2.0 * static_cast<double>(kGemmN * kGemmN * kGemmN);
  rt::gemm_nn(kGemmN, kGemmN, kGemmN, a.data(), b.data(), c.data());  // warm
  for (int i = 0; i < kGemmReps; ++i) {
    Tracer::Scope s(tracer, span, static_cast<std::uint64_t>(i), flops);
    rt::gemm_nn(kGemmN, kGemmN, kGemmN, a.data(), b.data(), c.data());
  }
}

}  // namespace

void run_kernel_probes(Tracer& tracer) {
  conv_probe(tracer, "linalg.conv_fwd", ConvKernel::kForward, 0.0f);
  conv_probe(tracer, "linalg.conv_fwd_sparse", ConvKernel::kForward, 0.9f);
  conv_probe(tracer, "linalg.conv_dgrad", ConvKernel::kDgrad, 0.0f);
  conv_probe(tracer, "linalg.conv_wgrad", ConvKernel::kWgrad, 0.0f);
  gemm_probe(tracer, "linalg.gemm.1t", 1);
  gemm_probe(tracer, "linalg.gemm.4t", 4);

  rt::Scheduler& sched = rt::Scheduler::instance();
  rt::TaskGroup group(sched);
  auto empty = [] {};
  for (int i = 0; i < kSpawnReps; ++i) {
    Tracer::Scope s(tracer, "sched.spawn_wait", static_cast<std::uint64_t>(i), 1.0);
    group.spawn(empty);
    group.wait();
  }
}

void kernel_per_layer(const std::vector<Span>& spans, Metrics& metrics) {
  const auto gflops = [&](const char* name) {
    return 1e-9 * work_per_second(spans, name);
  };
  metrics.set("linalg.conv_fwd_gflops", gflops("linalg.conv_fwd"));
  metrics.set("linalg.conv_fwd_sparse_gflops", gflops("linalg.conv_fwd_sparse"));
  metrics.set("linalg.conv_dgrad_gflops", gflops("linalg.conv_dgrad"));
  metrics.set("linalg.conv_wgrad_gflops", gflops("linalg.conv_wgrad"));
  metrics.set("linalg.gemm_gflops.1t", gflops("linalg.gemm.1t"));
  metrics.set("linalg.gemm_gflops.4t", gflops("linalg.gemm.4t"));
  const Summary spawn = summarize(span_durations_ns(spans, "sched.spawn_wait"));
  metrics.set("sched.spawn_wait_us.p50", 1e-3 * spawn.p50);
  metrics.set("sched.spawn_wait_us.p99", 1e-3 * spawn.p99);
}

}  // namespace perfbench
