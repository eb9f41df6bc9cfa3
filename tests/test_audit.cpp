// tests/test_audit.cpp — RT_AUDIT runtime hooks (common/audit.hpp).
//
// These tests have teeth only in -DRT_AUDIT=ON builds (check.sh --lint runs
// them there); in normal builds every test skips. They pin the dynamic half
// of the RT_HOT contract: after per-thread warm-up, the annotated hot paths
// perform zero heap allocations — measured by the counting global allocator,
// not inferred from code reading. LockOrderGuard's rank discipline is
// exercised on its legal orderings (violations abort by design, which a unit
// test cannot observe without death-test machinery).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/audit.hpp"
#include "common/rng.hpp"
#include "engine/engine.hpp"
#include "linalg/gemm.hpp"
#include "models/resnet.hpp"

namespace rt {
namespace {

#define RT_AUDIT_TEST_GUARD()                                       \
  do {                                                              \
    if (!audit::enabled()) {                                        \
      GTEST_SKIP() << "RT_AUDIT off: alloc counting is a no-op";    \
    }                                                               \
  } while (false)

TEST(AllocGuard, CountsHeapAllocations) {
  RT_AUDIT_TEST_GUARD();
  audit::AllocGuard guard("test");
  EXPECT_EQ(guard.allocations(), 0);
  auto* p = new int(7);
  EXPECT_EQ(guard.allocations(), 1);
  std::vector<double> v(1024);
  EXPECT_EQ(guard.allocations(), 2);
  delete p;  // deallocation is not an allocation
  EXPECT_EQ(guard.allocations(), 2);
}

TEST(AllocGuard, NestedGuardsCountIndependently) {
  RT_AUDIT_TEST_GUARD();
  audit::AllocGuard outer("outer");
  auto before = std::make_unique<int>(1);
  {
    audit::AllocGuard inner("inner");
    EXPECT_EQ(inner.allocations(), 0);
    auto scoped = std::make_unique<int>(2);
    EXPECT_EQ(inner.allocations(), 1);
  }
  EXPECT_GE(outer.allocations(), 2);  // sees both its own and inner's
}

TEST(LockOrderGuard, AscendingRanksAreLegal) {
  // Compiles and runs in all builds (the no-op version must also accept
  // this); under RT_AUDIT a violation would abort the process.
  audit::LockOrderGuard serving(audit::LockRank::kServingQueue);
  {
    audit::LockOrderGuard sched(audit::LockRank::kSchedInject);
    audit::LockOrderGuard group(audit::LockRank::kSchedGroup);
  }
  // Re-acquiring a higher rank after the nested scope unwound is legal.
  audit::LockOrderGuard park(audit::LockRank::kSchedPark);
}

TEST(RtHot, PackedGemmIsAllocationFree) {
  RT_AUDIT_TEST_GUARD();
  const std::int64_t m = 64, n = 96, k = 80;
  Rng rng(101);
  const Tensor a = Tensor::uniform({m, k}, rng, -1.0f, 1.0f);
  const Tensor b = Tensor::uniform({k, n}, rng, -1.0f, 1.0f);
  Tensor c({m, n});
  const GemmOpts opts{.accumulate = false, .parallel = false};
  gemm_nn(m, n, k, a.data(), b.data(), c.data(), opts);  // warm-up
  audit::AllocGuard guard("gemm_nn packed");
  gemm_nn(m, n, k, a.data(), b.data(), c.data(), opts);
  EXPECT_EQ(guard.allocations(), 0)
      << "packed_core must run out of its fixed thread_local pack buffers";
}

TEST(RtHot, SessionRunRowsIsAllocationFreeAfterWarmup) {
  RT_AUDIT_TEST_GUARD();
  Rng rng(202);
  ResNetConfig cfg;
  cfg.stage_blocks = {1, 1};
  cfg.stage_channels = {6, 12};
  cfg.num_classes = 10;
  cfg.name = "audit";
  ResNet model(cfg, rng);
  model.set_training(false);

  CompileOptions options;
  options.height = 8;
  options.width = 8;
  Session session(Engine::compile(model, options), /*max_batch=*/4);

  const Tensor x = Tensor::uniform({4, 3, 8, 8}, rng, 0.0f, 1.0f);
  Tensor logits({4, 10});
  // Warm-up: grows the thread's DecodeTable to this geometry and touches
  // the pooled workspace; the steady state must then be allocation-free.
  session.run_rows(x.data(), 4, logits.data());
  audit::AllocGuard guard("Session::run_rows");
  session.run_rows(x.data(), 4, logits.data());
  EXPECT_EQ(guard.allocations(), 0)
      << "run_rows steady state must recycle the workspace pool and the "
         "kernels' thread_local scratch";
  // The output still has to be real: the audit build must not have traded
  // correctness for allocation-freedom.
  float linf = 0.0f;
  Tensor again({4, 10});
  session.run_rows(x.data(), 4, again.data());
  linf = logits.linf_distance(again);
  EXPECT_EQ(linf, 0.0f) << "repeat runs must be bitwise deterministic";
}

TEST(RtHot, Int8RunRowsIsAllocationFreeAfterWarmup) {
  RT_AUDIT_TEST_GUARD();
  Rng rng(303);
  ResNetConfig cfg;
  cfg.stage_blocks = {1, 1};
  cfg.stage_channels = {6, 12};
  cfg.num_classes = 10;
  cfg.name = "audit8";
  ResNet model(cfg, rng);
  model.set_training(false);

  CompileOptions options;
  options.height = 8;
  options.width = 8;
  options.int8_weights = true;  // int8-native execution (the default path)
  const CompiledTicket plan = Engine::compile(model, options);
  ASSERT_TRUE(plan.int8_native());
  Session session(plan, /*max_batch=*/4);

  const Tensor x = Tensor::uniform({4, 3, 8, 8}, rng, 0.0f, 1.0f);
  Tensor logits({4, 10});
  // Warm-up: DecodeTable growth plus first touch of the quantized scratch
  // (qin/acc arena slabs, the kernels' thread_local staging buffers).
  session.run_rows(x.data(), 4, logits.data());
  audit::AllocGuard guard("Session::run_rows int8");
  session.run_rows(x.data(), 4, logits.data());
  EXPECT_EQ(guard.allocations(), 0)
      << "int8 run_rows steady state must run out of the arena workspace "
         "and fixed thread_local staging (no per-call gather/acc buffers)";
  Tensor again({4, 10});
  session.run_rows(x.data(), 4, again.data());
  EXPECT_EQ(logits.linf_distance(again), 0.0f)
      << "int8 repeat runs must be bitwise deterministic";
}

TEST(RtHot, CsrRunRowsIsAllocationFreeAfterWarmup) {
  RT_AUDIT_TEST_GUARD();
  Rng rng(404);
  ResNetConfig cfg;
  cfg.stage_blocks = {1, 1};
  cfg.stage_channels = {6, 12};
  cfg.num_classes = 10;
  cfg.name = "auditcsr";
  ResNet model(cfg, rng);
  model.set_training(false);
  // 20 rows: one full staged block of samples plus a partial one.
  const Tensor x = Tensor::uniform({20, 3, 8, 8}, rng, 0.0f, 1.0f);

  for (const bool int8 : {false, true}) {
    SCOPED_TRACE(int8 ? "int8" : "fp32");
    CompileOptions options;
    options.height = 8;
    options.width = 8;
    options.force_format = PackedFormat::kCsr;
    options.int8_weights = int8;
    Session session(Engine::compile(model, options), /*max_batch=*/20);
    Tensor logits({20, 10});
    // Warm-up touches the workspace's CSR staging block; the steady state
    // must stage into it without allocating.
    session.run_rows(x.data(), 20, logits.data());
    audit::AllocGuard guard("Session::run_rows csr");
    session.run_rows(x.data(), 20, logits.data());
    session.run_rows(x.data(), 1, logits.data());
    EXPECT_EQ(guard.allocations(), 0)
        << "CSR layers must stage into the workspace, not the heap";
    Tensor again({20, 10});
    session.run_rows(x.data(), 20, logits.data());
    session.run_rows(x.data(), 20, again.data());
    EXPECT_EQ(logits.linf_distance(again), 0.0f)
        << "CSR repeat runs must be bitwise deterministic";
  }
}

}  // namespace
}  // namespace rt
