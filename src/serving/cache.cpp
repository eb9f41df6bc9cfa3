#include "serving/cache.hpp"

#include <algorithm>
#include <atomic>
#include <list>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>

#include "common/audit.hpp"

namespace rt {
namespace serving {

const char* cache_policy_name(CachePolicy policy) {
  switch (policy) {
    case CachePolicy::kLru:
      return "lru";
    case CachePolicy::kArc:
      return "arc";
  }
  return "unknown";
}

std::uint64_t cache_key(std::uint64_t row_fingerprint,
                        std::uint64_t epoch_tag) noexcept {
  // splitmix64 finalizer over fingerprint ⊕ golden-ratio-spread tag: a
  // bijection for fixed tag (no fingerprint entropy lost), and one bit of
  // tag difference avalanches through the whole key.
  std::uint64_t x = row_fingerprint ^ (epoch_tag * 0x9E3779B97F4A7C15ULL);
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return x;
}

namespace {

// ---- LRU --------------------------------------------------------------------
// One recency list, MRU at the front. Hit: splice to front (no allocation).
// Insert: push front; past capacity the back (least recent) is the victim.
class LruPolicy final : public EvictionPolicy {
 public:
  explicit LruPolicy(std::int64_t capacity) : capacity_(capacity) {}

  void on_hit(std::uint64_t key) override {
    order_.splice(order_.begin(), order_, where_.at(key));
  }

  void on_insert(std::uint64_t key,
                 std::vector<std::uint64_t>& evicted) override {
    order_.push_front(key);
    where_[key] = order_.begin();
    if (static_cast<std::int64_t>(order_.size()) > capacity_) {
      evicted.push_back(order_.back());
      where_.erase(order_.back());
      order_.pop_back();
    }
  }

  std::int64_t tracked() const override {
    return static_cast<std::int64_t>(order_.size());
  }
  const char* name() const override { return "lru"; }

 private:
  std::int64_t capacity_;
  std::list<std::uint64_t> order_;
  std::map<std::uint64_t, std::list<std::uint64_t>::iterator> where_;
};

// ---- ARC --------------------------------------------------------------------
// Megiddo & Modha's adaptive replacement cache. Live values split between T1
// (seen exactly once since entering) and T2 (seen at least twice); evicted
// keys leave a ghost (key-only) trail in B1/B2. A hit in a ghost list is
// evidence the adaptation target p leans the wrong way: B1 hits grow p
// (favor recency/T1), B2 hits shrink it (favor frequency/T2). Scans flood
// T1/B1 without ever promoting into T2, so the frequent working set
// survives sweeps that would flush plain LRU.
class ArcPolicy final : public EvictionPolicy {
 public:
  explicit ArcPolicy(std::int64_t capacity) : c_(capacity) {}

  void on_hit(std::uint64_t key) override {
    // T1 or T2 hit → MRU of T2 (it has now been seen at least twice).
    Entry& entry = where_.at(key);
    list_of(entry.where).erase(entry.it);
    entry.where = Where::kT2;
    t2_.push_front(key);
    entry.it = t2_.begin();
  }

  void on_insert(std::uint64_t key,
                 std::vector<std::uint64_t>& evicted) override {
    auto ghost = where_.find(key);
    if (ghost != where_.end() && ghost->second.where == Where::kB1) {
      // Ghost hit in B1: recency was evicted too eagerly — grow p.
      p_ = std::min(c_, p_ + std::max<std::int64_t>(
                             1, static_cast<std::int64_t>(b2_.size()) /
                                    static_cast<std::int64_t>(b1_.size())));
      replace(/*from_b2=*/false, evicted);
      promote_ghost_to_t2(ghost->second, key);
      return;
    }
    if (ghost != where_.end() && ghost->second.where == Where::kB2) {
      // Ghost hit in B2: frequency was evicted too eagerly — shrink p.
      p_ = std::max<std::int64_t>(
          0, p_ - std::max<std::int64_t>(
                      1, static_cast<std::int64_t>(b1_.size()) /
                             static_cast<std::int64_t>(b2_.size())));
      replace(/*from_b2=*/true, evicted);
      promote_ghost_to_t2(ghost->second, key);
      return;
    }
    // Brand-new key (cases IV of the paper).
    const auto l1 = static_cast<std::int64_t>(t1_.size() + b1_.size());
    const auto total = l1 + static_cast<std::int64_t>(t2_.size() + b2_.size());
    if (l1 == c_) {
      if (static_cast<std::int64_t>(t1_.size()) < c_) {
        drop_lru(b1_, Where::kB1);
        replace(/*from_b2=*/false, evicted);
      } else {
        // B1 empty and T1 full: the T1 LRU leaves the cache entirely
        // (no ghost — its one reference carries no reuse signal).
        evicted.push_back(t1_.back());
        where_.erase(t1_.back());
        t1_.pop_back();
      }
    } else if (total >= c_) {
      if (total == 2 * c_) drop_lru(b2_, Where::kB2);
      replace(/*from_b2=*/false, evicted);
    }
    t1_.push_front(key);
    where_[key] = Entry{Where::kT1, t1_.begin()};
  }

  std::int64_t tracked() const override {
    return static_cast<std::int64_t>(t1_.size() + t2_.size());
  }
  const char* name() const override { return "arc"; }

  /// The adaptation target (tests observe it to pin ghost-hit adjustment).
  std::int64_t adaptation() const { return p_; }

 private:
  enum class Where { kT1, kT2, kB1, kB2 };
  struct Entry {
    Where where;
    std::list<std::uint64_t>::iterator it;
  };

  std::list<std::uint64_t>& list_of(Where where) {
    switch (where) {
      case Where::kT1:
        return t1_;
      case Where::kT2:
        return t2_;
      case Where::kB1:
        return b1_;
      case Where::kB2:
        return b2_;
    }
    return t1_;
  }

  void drop_lru(std::list<std::uint64_t>& list, Where where) {
    (void)where;
    where_.erase(list.back());
    list.pop_back();
  }

  void promote_ghost_to_t2(Entry& entry, std::uint64_t key) {
    list_of(entry.where).erase(entry.it);
    entry.where = Where::kT2;
    t2_.push_front(key);
    entry.it = t2_.begin();
  }

  /// Demotes one live value to its ghost list to make room. `from_b2` is
  /// the "x was found in B2" disambiguator of the paper's REPLACE.
  void replace(bool from_b2, std::vector<std::uint64_t>& evicted) {
    const auto t1 = static_cast<std::int64_t>(t1_.size());
    const bool take_t1 =
        t1 >= 1 && (t1 > p_ || (from_b2 && t1 == p_) || t2_.empty());
    std::list<std::uint64_t>& from = take_t1 ? t1_ : t2_;
    std::list<std::uint64_t>& ghost = take_t1 ? b1_ : b2_;
    if (from.empty()) return;  // nothing live to demote (c_ tiny, all ghosts)
    const std::uint64_t victim = from.back();
    from.pop_back();
    ghost.push_front(victim);
    where_[victim] = Entry{take_t1 ? Where::kB1 : Where::kB2, ghost.begin()};
    evicted.push_back(victim);
  }

  std::int64_t c_;
  std::int64_t p_ = 0;  ///< target size of T1, adapted by ghost hits
  std::list<std::uint64_t> t1_, t2_, b1_, b2_;
  std::map<std::uint64_t, Entry> where_;
};

}  // namespace

std::unique_ptr<EvictionPolicy> make_eviction_policy(CachePolicy policy,
                                                     std::int64_t capacity) {
  if (capacity < 1) {
    throw std::invalid_argument(
        "make_eviction_policy: capacity must be >= 1, got " +
        std::to_string(capacity));
  }
  switch (policy) {
    case CachePolicy::kLru:
      return std::make_unique<LruPolicy>(capacity);
    case CachePolicy::kArc:
      return std::make_unique<ArcPolicy>(capacity);
  }
  throw std::invalid_argument("make_eviction_policy: unknown policy");
}

// ---- PredictionCache --------------------------------------------------------

/// One lock shard: its slice of the key space, its slice of the capacity,
/// its own policy instance and counters. Everything below the mutex; plain
/// integer counters are cheaper than atomics and already serialized.
struct PredictionCache::Shard {
  mutable std::mutex mutex;  ///< audit::LockRank::kServingCache (leaf)
  std::map<std::uint64_t, std::vector<float>> entries;
  std::unique_ptr<EvictionPolicy> policy;
  std::vector<std::uint64_t> evicted_scratch;
  // Counters are atomics (written under the shard mutex, read lock-free) so
  // stats() — which the net layer serves per STATS request — never contends
  // with the lookup/insert hot path for any shard lock. `size` mirrors
  // entries.size() for the same reason.
  std::atomic<std::uint64_t> hits{0};
  std::atomic<std::uint64_t> misses{0};
  std::atomic<std::uint64_t> inserted{0};
  std::atomic<std::uint64_t> evicted{0};
  std::atomic<std::int64_t> size{0};
};

PredictionCache::PredictionCache(const CacheOptions& options,
                                 std::int64_t value_floats)
    : value_floats_(value_floats), capacity_rows_(options.capacity_rows) {
  if (options.capacity_rows < 1) {
    throw std::invalid_argument(
        "PredictionCache: capacity_rows must be >= 1, got " +
        std::to_string(options.capacity_rows));
  }
  if (options.shards < 1) {
    throw std::invalid_argument("PredictionCache: shards must be >= 1, got " +
                                std::to_string(options.shards));
  }
  if (value_floats < 1) {
    throw std::invalid_argument(
        "PredictionCache: value_floats must be >= 1, got " +
        std::to_string(value_floats));
  }
  // Never more shards than capacity rows, so every shard owns >= 1 row;
  // the remainder spreads over the first shards to keep the total exact.
  const auto count = static_cast<std::int64_t>(
      std::min<std::int64_t>(options.shards, options.capacity_rows));
  const std::int64_t base = options.capacity_rows / count;
  const std::int64_t rem = options.capacity_rows % count;
  shards_.reserve(static_cast<std::size_t>(count));
  for (std::int64_t i = 0; i < count; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->policy = make_eviction_policy(options.policy, base + (i < rem));
    shards_.push_back(std::move(shard));
  }
}

PredictionCache::~PredictionCache() = default;

PredictionCache::Shard& PredictionCache::shard_for(std::uint64_t key) {
  // cache_key() already avalanche-mixed the fingerprint and epoch tag, so
  // a plain modulus spreads keys evenly across any shard count.
  return *shards_[static_cast<std::size_t>(
      key % static_cast<std::uint64_t>(shards_.size()))];
}

RT_HOT bool PredictionCache::lookup(std::uint64_t key, float* out) {
  Shard& shard = shard_for(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  RT_AUDIT_LOCK(audit::LockRank::kServingCache);
  const auto it = shard.entries.find(key);
  if (it == shard.entries.end()) {
    shard.misses.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  shard.policy->on_hit(key);
  shard.hits.fetch_add(1, std::memory_order_relaxed);
  std::copy(it->second.begin(), it->second.end(), out);
  return true;
}

void PredictionCache::insert(std::uint64_t key, const float* value) {
  Shard& shard = shard_for(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  RT_AUDIT_LOCK(audit::LockRank::kServingCache);
  const auto [it, fresh] = shard.entries.try_emplace(key);
  if (!fresh) return;  // racing fills computed identical bits; first wins
  it->second.assign(value, value + value_floats_);
  shard.evicted_scratch.clear();
  shard.policy->on_insert(key, shard.evicted_scratch);
  shard.inserted.fetch_add(1, std::memory_order_relaxed);
  std::int64_t delta = 1;
  for (const std::uint64_t victim : shard.evicted_scratch) {
    shard.entries.erase(victim);
    shard.evicted.fetch_add(1, std::memory_order_relaxed);
    --delta;
  }
  shard.size.fetch_add(delta, std::memory_order_relaxed);
}

CacheStats PredictionCache::stats() const {
  // Lock-free snapshot: counters are relaxed atomics, so a monitoring loop
  // (or the net layer's STATS verb under concurrent load) never stalls the
  // lookup/insert hot path by sweeping every shard mutex.
  CacheStats out;
  out.capacity_rows = capacity_rows_;
  for (const auto& shard : shards_) {
    out.hit_rows += shard->hits.load(std::memory_order_relaxed);
    out.miss_rows += shard->misses.load(std::memory_order_relaxed);
    out.inserted_rows += shard->inserted.load(std::memory_order_relaxed);
    out.evicted_rows += shard->evicted.load(std::memory_order_relaxed);
    out.size_rows += shard->size.load(std::memory_order_relaxed);
  }
  return out;
}

}  // namespace serving
}  // namespace rt
