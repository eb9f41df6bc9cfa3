// serving::PredictionCache + eviction policies + registry PlanCache plumbing.
//
// Three layers of contract:
//   1. rt::Pcg32 is the canonical PCG32: the first outputs of the reference
//      (seed 42, stream 54) pin conformance, and a constexpr evaluation pins
//      that traces can be generated at compile time.
//   2. Each eviction policy's eviction ORDER equals a naive reference
//      simulator's on randomized traces (plus handcrafted cases: ARC
//      ghost-list transitions and scan survival against LRU), so the
//      optimized index structures cannot drift from the textbook
//      algorithms.
//   3. Through a live serving::Server, cache-on responses are BITWISE
//      identical to cache-off / direct Session output — including partial
//      hits, duplicate rows inside one request, hot swaps (a swapped-in
//      fleet must never serve a predecessor's logits), and concurrent
//      hit/miss traffic — and ServerStats/CacheStats account every row.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "core/checkpoint_store.hpp"
#include "engine/engine.hpp"
#include "models/resnet.hpp"
#include "serving/cache.hpp"
#include "serving/serving.hpp"
#include "tensor/tensor.hpp"

namespace rt {
namespace {

using serving::CacheOptions;
using serving::CachePolicy;
using serving::CacheStats;
using serving::EvictionPolicy;
using serving::PredictionCache;

// ---- Pcg32 ------------------------------------------------------------------

TEST(Pcg32, PinsCanonicalReferenceStreamForTwoSeeds) {
  // (42, 54) is the seed/stream pair of the reference pcg32-demo; its first
  // outputs (0xa15c02b7, 0x7b47f409, ...) are published by the PCG project,
  // so this table pins conformance with the canonical generator, not just
  // self-consistency.
  constexpr std::array<std::uint32_t, 16> kWant42_54 = {
      0xa15c02b7u, 0x7b47f409u, 0xba1d3330u, 0x83d2f293u,
      0xbfa4784bu, 0xcbed606eu, 0xbfc6a3adu, 0x812fff6du,
      0xe61f305au, 0xf9384b90u, 0x32db86feu, 0x1dc035f9u,
      0xed786826u, 0x3822441du, 0x2ba113d7u, 0x1c5b818bu,
  };
  // A second, unrelated (seed, stream): Rng's historical default seeds.
  constexpr std::array<std::uint32_t, 16> kWantDefault = {
      0x1bbeb4f2u, 0xe82e89e9u, 0x681cfdebu, 0xe00fa2ecu,
      0xb1e1a434u, 0xbe56068du, 0x2add8c94u, 0x9f1b63f5u,
      0x38bfe349u, 0xe5601e3du, 0x66ad0ba4u, 0x6587fa97u,
      0x58ce0bbfu, 0xa76b235au, 0xca5a9c9bu, 0xe28a991bu,
  };

  // Constexpr proof: the stream is computable in a constant expression, so
  // benchmark traces can be built at compile time on any toolchain.
  constexpr std::uint32_t kFirst = [] {
    Pcg32 g(42, 54);
    return g.next_u32();
  }();
  static_assert(kFirst == 0xa15c02b7u,
                "Pcg32 must reproduce the canonical PCG32 stream");

  Pcg32 a(42, 54);
  for (std::size_t i = 0; i < kWant42_54.size(); ++i) {
    EXPECT_EQ(a.next_u32(), kWant42_54[i]) << "output " << i;
  }
  Pcg32 b(0x853c49e6748fea9bULL, 0xda3e39cb94b95bdbULL);
  for (std::size_t i = 0; i < kWantDefault.size(); ++i) {
    EXPECT_EQ(b.next_u32(), kWantDefault[i]) << "output " << i;
  }
}

TEST(Pcg32, BoundedAndUnitDrawsStayInRange) {
  Pcg32 g(7, 1);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(g.next_below(13), 13u);
    const double u = g.uniform_double();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

// ---- naive reference simulators --------------------------------------------
// Deliberately dumb: linear scans and full histories instead of the library's
// splice lists and key maps. Agreement on randomized traces means the fast
// structures implement the same textbook policy.

class NaiveLru {
 public:
  explicit NaiveLru(int capacity) : capacity_(capacity) {}

  void on_hit(std::uint64_t key) {
    order_.erase(std::find(order_.begin(), order_.end(), key));
    order_.insert(order_.begin(), key);
  }

  std::vector<std::uint64_t> on_insert(std::uint64_t key) {
    order_.insert(order_.begin(), key);
    if (static_cast<int>(order_.size()) <= capacity_) return {};
    const std::uint64_t victim = order_.back();
    order_.pop_back();
    return {victim};
  }

  std::int64_t tracked() const {
    return static_cast<std::int64_t>(order_.size());
  }

 private:
  int capacity_;
  std::vector<std::uint64_t> order_;  // MRU first
};

/// Literal transcription of Megiddo & Modha's ARC(c) pseudocode over plain
/// vectors (MRU at the front), including the library's defensive
/// "T2 empty -> take T1" arm of REPLACE.
class NaiveArc {
 public:
  explicit NaiveArc(int c) : c_(c) {}

  void on_hit(std::uint64_t key) {
    remove(t1_, key);
    remove(t2_, key);
    t2_.insert(t2_.begin(), key);
  }

  std::vector<std::uint64_t> on_insert(std::uint64_t key) {
    std::vector<std::uint64_t> evicted;
    if (contains(b1_, key)) {
      p_ = std::min<std::int64_t>(
          c_, p_ + std::max<std::int64_t>(
                       1, static_cast<std::int64_t>(b2_.size()) /
                              static_cast<std::int64_t>(b1_.size())));
      replace(false, evicted);
      remove(b1_, key);
      t2_.insert(t2_.begin(), key);
      return evicted;
    }
    if (contains(b2_, key)) {
      p_ = std::max<std::int64_t>(
          0, p_ - std::max<std::int64_t>(
                      1, static_cast<std::int64_t>(b1_.size()) /
                             static_cast<std::int64_t>(b2_.size())));
      replace(true, evicted);
      remove(b2_, key);
      t2_.insert(t2_.begin(), key);
      return evicted;
    }
    const auto l1 = static_cast<std::int64_t>(t1_.size() + b1_.size());
    const auto total =
        l1 + static_cast<std::int64_t>(t2_.size() + b2_.size());
    if (l1 == c_) {
      if (static_cast<std::int64_t>(t1_.size()) < c_) {
        b1_.pop_back();
        replace(false, evicted);
      } else {
        evicted.push_back(t1_.back());
        t1_.pop_back();
      }
    } else if (total >= c_) {
      if (total == 2 * c_) b2_.pop_back();
      replace(false, evicted);
    }
    t1_.insert(t1_.begin(), key);
    return evicted;
  }

  std::int64_t tracked() const {
    return static_cast<std::int64_t>(t1_.size() + t2_.size());
  }

 private:
  static bool contains(const std::vector<std::uint64_t>& v,
                       std::uint64_t key) {
    return std::find(v.begin(), v.end(), key) != v.end();
  }
  static void remove(std::vector<std::uint64_t>& v, std::uint64_t key) {
    const auto it = std::find(v.begin(), v.end(), key);
    if (it != v.end()) v.erase(it);
  }

  void replace(bool from_b2, std::vector<std::uint64_t>& evicted) {
    const auto t1 = static_cast<std::int64_t>(t1_.size());
    const bool take_t1 =
        t1 >= 1 && (t1 > p_ || (from_b2 && t1 == p_) || t2_.empty());
    std::vector<std::uint64_t>& from = take_t1 ? t1_ : t2_;
    std::vector<std::uint64_t>& ghost = take_t1 ? b1_ : b2_;
    if (from.empty()) return;
    const std::uint64_t victim = from.back();
    from.pop_back();
    ghost.insert(ghost.begin(), victim);
    evicted.push_back(victim);
  }

  std::int64_t c_;
  std::int64_t p_ = 0;
  std::vector<std::uint64_t> t1_, t2_, b1_, b2_;
};

/// Drives the library policy and a naive simulator through one randomized
/// trace and asserts identical eviction sets at every step.
template <typename Naive>
void expect_trace_parity(CachePolicy kind, Naive naive, std::int64_t capacity,
                         std::uint32_t universe, std::uint64_t seed,
                         int refs) {
  auto policy = serving::make_eviction_policy(kind, capacity);
  std::set<std::uint64_t> live;
  Pcg32 rng(seed);
  for (int i = 0; i < refs; ++i) {
    // Non-uniform draw: square the uniform so low keys are hot — every
    // policy's interesting behavior needs both reuse and churn.
    const std::uint64_t key =
        (rng.next_below(universe) * (rng.next_below(universe) + 1)) %
        universe;
    if (live.count(key) != 0) {
      policy->on_hit(key);
      naive.on_hit(key);
    } else {
      std::vector<std::uint64_t> got;
      policy->on_insert(key, got);
      std::vector<std::uint64_t> want = naive.on_insert(key);
      std::sort(got.begin(), got.end());
      std::sort(want.begin(), want.end());
      ASSERT_EQ(got, want) << serving::cache_policy_name(kind)
                           << ": divergent eviction at reference " << i
                           << " (key " << key << ")";
      live.insert(key);
      for (const std::uint64_t victim : got) live.erase(victim);
    }
    ASSERT_EQ(policy->tracked(), naive.tracked()) << "at reference " << i;
    ASSERT_LE(policy->tracked(), capacity);
  }
}

TEST(EvictionPolicyParity, LruMatchesNaiveOnRandomizedTraces) {
  expect_trace_parity(CachePolicy::kLru, NaiveLru(8), 8, 24, 101, 4000);
  expect_trace_parity(CachePolicy::kLru, NaiveLru(5), 5, 100, 102, 4000);
}

TEST(EvictionPolicyParity, ArcMatchesNaiveOnRandomizedTraces) {
  // The small-universe trace keeps ghosts hot (constant B1/B2 hits and p
  // adaptation); the large-universe one churns keys clean through both
  // ghost lists.
  expect_trace_parity(CachePolicy::kArc, NaiveArc(8), 8, 24, 107, 4000);
  expect_trace_parity(CachePolicy::kArc, NaiveArc(5), 5, 100, 108, 4000);
}

// ---- handcrafted policy semantics ------------------------------------------

TEST(EvictionPolicy, ArcGhostHitsAdaptAndPromoteStraightToT2) {
  // c=2 walkthrough of the paper's Case II/III. x is promoted to T2 via a
  // hit; y is demoted to the B1 ghost list; re-demanding y must (a) evict
  // from T2 (p grew toward recency), (b) revive y directly into T2.
  auto policy = serving::make_eviction_policy(CachePolicy::kArc, 2);
  std::vector<std::uint64_t> evicted;
  policy->on_insert(10, evicted);  // x -> T1
  policy->on_hit(10);              // x -> T2
  policy->on_insert(20, evicted);  // y -> T1
  ASSERT_TRUE(evicted.empty());
  policy->on_insert(30, evicted);  // z: REPLACE demotes y (T1 LRU) to B1
  ASSERT_EQ(evicted, std::vector<std::uint64_t>{20});
  evicted.clear();
  policy->on_insert(20, evicted);  // y found in B1: p grows, x (T2) demoted
  ASSERT_EQ(evicted, std::vector<std::uint64_t>{10});
  ASSERT_EQ(policy->tracked(), 2);  // y revived (T2) + z (T1)
  evicted.clear();
  policy->on_hit(20);  // y must be live again — a ghost hit revives values
  policy->on_insert(10, evicted);  // x found in B2: p shrinks, z demoted
  ASSERT_EQ(evicted, std::vector<std::uint64_t>{30});
}

TEST(EvictionPolicy, ArcSurvivesScansThatFlushLru) {
  // Hot set of 4 keys promoted to T2, then a 100-key cold scan: ARC must
  // keep every hot key resident (scans live and die in T1), while LRU by
  // construction loses all of them.
  const std::int64_t kCapacity = 8;
  auto arc = serving::make_eviction_policy(CachePolicy::kArc, kCapacity);
  auto lru = serving::make_eviction_policy(CachePolicy::kLru, kCapacity);
  std::vector<std::uint64_t> arc_evicted, lru_evicted;
  for (std::uint64_t key = 1; key <= 4; ++key) {
    arc->on_insert(key, arc_evicted);
    arc->on_hit(key);  // -> T2
    lru->on_insert(key, lru_evicted);
    lru->on_hit(key);
  }
  for (std::uint64_t cold = 1000; cold < 1100; ++cold) {
    arc->on_insert(cold, arc_evicted);
    lru->on_insert(cold, lru_evicted);
  }
  for (const std::uint64_t victim : arc_evicted) {
    EXPECT_GE(victim, 1000u) << "ARC let a cold scan evict hot key "
                             << victim;
  }
  // The same scan flushes LRU's entire hot set — the contrast the serving
  // bench measures as throughput.
  for (std::uint64_t key = 1; key <= 4; ++key) {
    EXPECT_NE(std::find(lru_evicted.begin(), lru_evicted.end(), key),
              lru_evicted.end());
  }
}

TEST(EvictionPolicy, FactoryValidatesAndNames) {
  EXPECT_THROW(serving::make_eviction_policy(CachePolicy::kLru, 0),
               std::invalid_argument);
  EXPECT_STREQ(serving::cache_policy_name(CachePolicy::kLru), "lru");
  EXPECT_STREQ(serving::cache_policy_name(CachePolicy::kArc), "arc");
  EXPECT_STREQ(serving::make_eviction_policy(CachePolicy::kArc, 2)->name(),
               "arc");
}

// ---- cache keys -------------------------------------------------------------

TEST(CacheKey, MixesFingerprintAndEpochTag) {
  const std::vector<float> row_a(48, 0.25f);
  std::vector<float> row_b = row_a;
  row_b[7] = 0.25000012f;  // one ULP-ish nudge: different bytes
  const std::uint64_t fp_a = row_fingerprint(row_a.data(), row_a.size());
  const std::uint64_t fp_b = row_fingerprint(row_b.data(), row_b.size());
  EXPECT_NE(fp_a, fp_b);
  EXPECT_EQ(fp_a, row_fingerprint(row_a.data(), row_a.size()));

  // Same row under different epoch tags must land on different keys — the
  // invalidation mechanism hot swap relies on.
  EXPECT_NE(serving::cache_key(fp_a, 1), serving::cache_key(fp_a, 2));
  EXPECT_NE(serving::cache_key(fp_a, 1), serving::cache_key(fp_b, 1));
  EXPECT_EQ(serving::cache_key(fp_a, 3), serving::cache_key(fp_a, 3));
}

// ---- PredictionCache --------------------------------------------------------

TEST(PredictionCacheUnit, ValidatesConstruction) {
  CacheOptions opt;
  opt.capacity_rows = 0;
  EXPECT_THROW(PredictionCache(opt, 10), std::invalid_argument);
  opt.capacity_rows = 4;
  opt.shards = 0;
  EXPECT_THROW(PredictionCache(opt, 10), std::invalid_argument);
  opt.shards = 1;
  EXPECT_THROW(PredictionCache(opt, 0), std::invalid_argument);
}

TEST(PredictionCacheUnit, RoundTripsAndFirstInsertWins) {
  CacheOptions opt;
  opt.capacity_rows = 8;
  opt.shards = 2;
  PredictionCache cache(opt, 3);
  EXPECT_EQ(cache.value_floats(), 3);

  const std::vector<float> a{1.0f, 2.0f, 3.0f};
  const std::vector<float> b{9.0f, 9.0f, 9.0f};
  std::vector<float> out(3, 0.0f);
  EXPECT_FALSE(cache.lookup(42, out.data()));
  cache.insert(42, a.data());
  ASSERT_TRUE(cache.lookup(42, out.data()));
  EXPECT_EQ(out, a);
  // Racing fills compute identical bits by the determinism contract; the
  // idempotent insert keeps the first (they are interchangeable anyway).
  cache.insert(42, b.data());
  ASSERT_TRUE(cache.lookup(42, out.data()));
  EXPECT_EQ(out, a);

  const CacheStats st = cache.stats();
  EXPECT_EQ(st.hit_rows, 2u);
  EXPECT_EQ(st.miss_rows, 1u);
  EXPECT_EQ(st.inserted_rows, 1u);
  EXPECT_EQ(st.size_rows, 1);
  EXPECT_EQ(st.capacity_rows, 8);
}

TEST(PredictionCacheUnit, EnforcesCapacityAcrossShardsAndClampsShardCount) {
  // shards (8) > capacity (3): clamped so every shard owns >= 1 row and the
  // total bound stays exact.
  CacheOptions opt;
  opt.capacity_rows = 3;
  opt.shards = 8;
  opt.policy = CachePolicy::kLru;
  PredictionCache cache(opt, 2);
  const std::vector<float> v{1.0f, 2.0f};
  for (std::uint64_t key = 1; key <= 64; ++key) {
    cache.insert(key, v.data());
  }
  const CacheStats st = cache.stats();
  EXPECT_EQ(st.inserted_rows, 64u);
  EXPECT_LE(st.size_rows, 3);
  EXPECT_GE(st.size_rows, 1);
  EXPECT_EQ(st.inserted_rows - st.evicted_rows,
            static_cast<std::uint64_t>(st.size_rows));
}

// ---- live Server integration ------------------------------------------------

std::unique_ptr<ResNet> tiny_model(std::uint64_t seed) {
  Rng rng(seed);
  ResNetConfig cfg;
  cfg.stage_blocks = {1, 1};
  cfg.stage_channels = {6, 12};
  cfg.num_classes = 10;
  cfg.name = "tc";
  return std::make_unique<ResNet>(cfg, rng);
}

std::shared_ptr<const CompiledTicket> tiny_plan(std::uint64_t seed) {
  auto model = tiny_model(seed);
  model->set_training(false);
  return std::make_shared<const CompiledTicket>(Engine::compile(*model));
}

/// `n` distinct single rows, deterministic in (seed, index).
std::vector<Tensor> make_rows(int n, std::uint64_t seed) {
  std::vector<Tensor> rows;
  rows.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    Rng rng(seed + static_cast<std::uint64_t>(i));
    rows.push_back(Tensor::uniform({1, 3, 16, 16}, rng, 0.0f, 1.0f));
  }
  return rows;
}

/// Packs pool rows (by index) into one (n, 3, 16, 16) request.
Tensor pack_rows(const std::vector<Tensor>& pool, const std::vector<int>& idx) {
  const std::int64_t plane = 3 * 16 * 16;
  Tensor out({static_cast<std::int64_t>(idx.size()), 3, 16, 16});
  for (std::size_t j = 0; j < idx.size(); ++j) {
    const Tensor& row = pool[static_cast<std::size_t>(idx[j])];
    std::copy(row.data(), row.data() + plane,
              out.data() + static_cast<std::int64_t>(j) * plane);
  }
  return out;
}

void expect_bitwise(const Tensor& got, const Tensor& want) {
  ASSERT_TRUE(got.same_shape(want));
  for (std::int64_t i = 0; i < got.numel(); ++i) {
    ASSERT_EQ(got[i], want[i]) << "flat index " << i;
  }
}

TEST(ServingCache, CacheOnIsBitwiseCacheOffIncludingPartialHits) {
  auto plan = tiny_plan(91);
  Session reference(plan, /*max_batch=*/8);
  const std::vector<Tensor> pool = make_rows(8, 920);

  serving::ServerOptions opt;
  opt.max_batch = 8;
  opt.max_delay_ms = 0.0;
  opt.cache.capacity_rows = 64;
  opt.cache.policy = CachePolicy::kArc;
  serving::Server server(plan, opt);

  const auto roundtrip = [&](const std::vector<int>& idx) {
    const Tensor request = pack_rows(pool, idx);
    expect_bitwise(server.predict(Tensor(request)),
                   reference.predict(request));
  };

  roundtrip({0, 1, 2, 3});  // pass 1: all four rows miss
  roundtrip({0, 1, 2, 3});  // pass 2: all-hit fast path (no batch at all)
  roundtrip({2, 3, 4, 5});  // pass 3: partial — 2 hits, 2 compacted misses
  roundtrip({6, 6, 7});     // pass 4: duplicate rows inside one request
  roundtrip({6, 7});        // pass 5: both hit

  const CacheStats cs = server.cache_stats();
  EXPECT_EQ(cs.hit_rows, 4u + 2u + 2u);
  EXPECT_EQ(cs.miss_rows, 4u + 2u + 3u);
  // Duplicate rows in pass 4 raced to fill one entry; first write won.
  EXPECT_EQ(cs.inserted_rows, 4u + 2u + 2u);
  EXPECT_EQ(cs.evicted_rows, 0u);

  const serving::ServerStats st = server.stats();
  EXPECT_EQ(st.cache_hit_rows, cs.hit_rows);
  EXPECT_EQ(st.cache_miss_rows, cs.miss_rows);
  EXPECT_EQ(st.completed_requests, 5u);
  EXPECT_EQ(st.failed_requests, 0u);
  EXPECT_EQ(st.submitted_rows, 4u + 4u + 4u + 3u + 2u);
  // Only miss rows ever reached a micro-batch.
  EXPECT_EQ(st.batched_rows, cs.miss_rows);
}

TEST(ServingCache, HotSwapNeverServesStaleHits) {
  auto plan1 = tiny_plan(101);
  auto plan2 = tiny_plan(102);
  Session ref1(plan1, 4);
  Session ref2(plan2, 4);
  const std::vector<Tensor> pool = make_rows(1, 1030);
  const Tensor& x = pool[0];
  const Tensor want1 = ref1.predict(x);
  const Tensor want2 = ref2.predict(x);
  ASSERT_NE(want1.linf_distance(want2), 0.0f);  // versions must disagree

  serving::ServerOptions opt;
  opt.max_batch = 4;
  opt.max_delay_ms = 0.0;
  opt.cache.capacity_rows = 16;
  serving::Server server(plan1, opt);

  expect_bitwise(server.predict(Tensor(x)), want1);  // miss + fill
  expect_bitwise(server.predict(Tensor(x)), want1);  // hit
  EXPECT_EQ(server.cache_stats().hit_rows, 1u);

  // Hot swap: the cached v1 logits are keyed under v1's epoch tag, so the
  // very first v2 request must miss and return v2 bits — a stale hit here
  // would bitwise-equal want1 and fail loudly.
  server.swap_fleet({"v2", {plan2}});
  expect_bitwise(server.predict(Tensor(x)), want2);
  expect_bitwise(server.predict(Tensor(x)), want2);  // hit under the v2 tag
  EXPECT_EQ(server.cache_stats().hit_rows, 2u);
  EXPECT_EQ(server.cache_stats().miss_rows, 2u);

  // Swapping back installs a THIRD epoch (fresh tag): the old v1 fill must
  // not resurrect.
  server.swap_fleet({"v1-again", {plan1}});
  expect_bitwise(server.predict(Tensor(x)), want1);
  EXPECT_EQ(server.cache_stats().miss_rows, 3u);
}

TEST(ServingCache, ConcurrentHitMissTrafficStaysBitwiseAndAccountsRows) {
  auto plan = tiny_plan(111);
  Session reference(plan, 8);
  constexpr int kPool = 16;
  const std::vector<Tensor> pool = make_rows(kPool, 1120);
  std::vector<Tensor> want;
  want.reserve(kPool);
  for (const Tensor& row : pool) want.push_back(reference.predict(row));

  serving::ServerOptions opt;
  opt.shards = 2;
  opt.max_batch = 8;
  opt.max_delay_ms = 0.05;
  opt.queue_capacity_rows = 1 << 14;
  // Capacity below the working set: constant concurrent hit/miss/evict mix.
  opt.cache.capacity_rows = 8;
  opt.cache.shards = 4;
  opt.cache.policy = CachePolicy::kArc;
  serving::Server server(plan, opt);

  constexpr int kClients = 4;
  constexpr int kRequests = 64;
  std::vector<int> picked(kClients * kRequests);
  std::vector<Tensor> got(kClients * kRequests);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Pcg32 rng(200 + static_cast<std::uint64_t>(c));
      for (int r = 0; r < kRequests; ++r) {
        const int idx = static_cast<int>(rng.next_below(kPool));
        const std::size_t slot = static_cast<std::size_t>(c * kRequests + r);
        picked[slot] = idx;
        got[slot] = server.predict(Tensor(pool[static_cast<std::size_t>(idx)]));
      }
    });
  }
  for (std::thread& t : clients) t.join();

  for (std::size_t i = 0; i < got.size(); ++i) {
    expect_bitwise(got[i], want[static_cast<std::size_t>(picked[i])]);
  }
  const CacheStats cs = server.cache_stats();
  EXPECT_EQ(cs.hit_rows + cs.miss_rows,
            static_cast<std::uint64_t>(kClients * kRequests));
  EXPECT_LE(cs.size_rows, 8);
  const serving::ServerStats st = server.stats();
  EXPECT_EQ(st.completed_requests,
            static_cast<std::uint64_t>(kClients * kRequests));
  EXPECT_EQ(st.failed_requests, 0u);
  EXPECT_EQ(st.rejected_requests, 0u);
}

TEST(ServingCache, ServerValidatesCacheOptions) {
  auto plan = tiny_plan(121);
  serving::ServerOptions negative;
  negative.cache.capacity_rows = -1;
  EXPECT_THROW(serving::Server(plan, negative), std::invalid_argument);

  serving::ServerOptions bad_shards;
  bad_shards.cache.capacity_rows = 4;
  bad_shards.cache.shards = 0;
  EXPECT_THROW(serving::Server(plan, bad_shards), std::invalid_argument);

  // Cache off (capacity 0): stats stay all-zero and nothing is cached.
  serving::Server off(plan, serving::ServerOptions{});
  const std::vector<Tensor> pool = make_rows(1, 1220);
  off.predict(Tensor(pool[0]));
  off.predict(Tensor(pool[0]));
  const CacheStats cs = off.cache_stats();
  EXPECT_EQ(cs.hit_rows, 0u);
  EXPECT_EQ(cs.miss_rows, 0u);
  EXPECT_EQ(cs.capacity_rows, 0);
}

}  // namespace
}  // namespace rt
