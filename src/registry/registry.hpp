#pragma once
// rt::registry — a multi-tenant catalog of named, versioned model snapshots
// with lazy ticket compilation and zero-downtime rollout control.
//
// The serving layer answers "run these rows on this fleet"; the registry
// answers the operational questions above it: which model is this, which
// version owns live traffic, where do its bytes live, and when was it last
// compiled for these kernels?
//
//   registry::Registry reg;
//   const int v1 = reg.publish("cifar", model);          // snapshot + store
//   serving::Server& srv = reg.serve("cifar@latest", sopt, copt);
//   ...
//   const int v2 = reg.publish("cifar", retrained);      // new version
//   reg.start_ab("cifar", "cifar@2", /*fraction=*/0.25, /*seed=*/42);
//   ...judge per-version stats (srv.version_stats())...
//   reg.promote("cifar");          // candidate -> primary, @stable moves
//   reg.deploy("cifar@1");         // or: hot-swap back, zero downtime
//
// Model references are "name", "name@<version>", "name@latest", or
// "name@stable". Publishing snapshots the model's StateDict, fingerprints
// its content, and persists it through the content-addressed CheckpointStore
// (best-effort; the in-memory copy is authoritative). The alias layer is
// movable: @latest follows publish(), @stable follows promote()/set_stable().
//
// Compilation is lazy and cached: compiled() returns a shared CompiledTicket
// memoized under (checkpoint key × CompileOptions fingerprint × kernel-
// numerics version), so two servers deploying "cifar@2" with equal options
// share one plan, and a kernel-source change (kKernelSourceHash) silently
// invalidates everything. The memoization is a two-layer PlanCache: a weak
// sharing layer (concurrent demands for a live plan converge on one copy)
// plus a bounded strong retention layer driven by the serving prediction
// cache's LRU EvictionPolicy — up to plan_cache_capacity recently-used
// tickets survive every external reference dropping, so rolling back to a
// recent version skips recompilation entirely. plan_cache_capacity = 0
// restores the pure weak behavior: a swapped-out fleet's plan is truly
// freed at drain.
//
// Thread-safety: all methods may be called concurrently. The catalog mutex
// orders control-plane mutations (publish / deploy / promote); the compile
// mutex single-flights plan construction; neither is ever held across the
// other in the outer->inner direction that would invert the documented
// LockRank order (catalog < compile < serving's route).

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/checkpoint_store.hpp"
#include "engine/plan.hpp"
#include "models/resnet.hpp"
#include "serving/serving.hpp"

namespace rt {
namespace registry {

/// A parsed model reference. selector is "", "latest", "stable", or a
/// decimal version number.
struct ModelRef {
  std::string model;
  std::string selector;
};

/// Parses "name", "name@7", "name@latest", "name@stable". Throws
/// std::invalid_argument on an empty name or a malformed selector.
ModelRef parse_model_ref(const std::string& ref);

/// Canonical string over every compile-affecting CompileOptions field —
/// one third of the compiled-ticket cache key (with the checkpoint key and
/// the kernel-numerics version).
std::string compile_options_fingerprint(const CompileOptions& options);

/// Wire-resolution result for the socket front-end (src/net/): the model's
/// serving endpoint plus the versions a "model@version" reference must be
/// reconciled against before rows are submitted.
struct WireRoute {
  serving::Server* server = nullptr;
  int version = 0;            ///< resolved from the reference
  int live_version = 0;       ///< owner of primary traffic
  int candidate_version = 0;  ///< A/B candidate (0 = none)
};

/// Catalog row describing one published version.
struct VersionInfo {
  int version = 0;
  std::string checkpoint_key;     ///< canonical CheckpointKey string
  std::uint64_t fingerprint = 0;  ///< state_dict content fingerprint
};

struct RegistryOptions {
  /// CheckpointStore root backing published snapshots. "" disables disk;
  /// the registry then works purely from its in-memory copies.
  std::string cache_root = CheckpointStore::default_root();
  /// Compiled tickets the PlanCache retains after every external reference
  /// drops (so re-deploying a recently-served version skips compilation).
  /// 0 = pure weak memoization: plans are freed the moment the last fleet
  /// or caller lets go.
  std::int64_t plan_cache_capacity = 8;
};

/// Two-layer compiled-ticket cache: a weak map that makes concurrent
/// demands for a live plan share one copy (and costs nothing once the plan
/// dies), plus a bounded strong layer — an LRU serving::EvictionPolicy —
/// that pins the `capacity` most recently used tickets so they survive
/// swap-out drains. Plan reuse is dominated by recency (rollback to the
/// previous version), which is what LRU ranks. NOT internally synchronized:
/// the Registry serializes all access under its compile mutex.
class PlanCache {
 public:
  /// capacity 0 disables retention (the weak layer still shares);
  /// otherwise LRU ranks which tickets stay pinned.
  explicit PlanCache(std::int64_t capacity);
  ~PlanCache();

  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// The cached plan for `key`, or nullptr. A retention hit refreshes the
  /// policy; a weak-layer hit (someone still holds the plan) counts too.
  std::shared_ptr<const CompiledTicket> find(const std::string& key);
  /// Records a freshly built plan under `key`: always into the weak layer,
  /// and into the retention layer when enabled (possibly evicting the
  /// policy's victims).
  void insert(const std::string& key,
              const std::shared_ptr<const CompiledTicket>& plan);

  struct Stats {
    std::uint64_t hits = 0;       ///< find() calls that avoided a rebuild
    std::uint64_t misses = 0;     ///< find() calls that fell through
    std::uint64_t evictions = 0;  ///< tickets un-pinned by policy pressure
    std::int64_t retained = 0;    ///< tickets currently pinned
    std::int64_t capacity = 0;    ///< the retention bound (0 = off)
  };
  Stats stats() const;

 private:
  struct Retained {
    std::string key;  ///< full key, so a 64-bit hash alias cannot mix plans
    std::shared_ptr<const CompiledTicket> plan;
  };

  std::int64_t capacity_ = 0;
  std::unique_ptr<serving::EvictionPolicy> policy_;  ///< null when off
  std::map<std::uint64_t, Retained> retained_;
  std::map<std::string, std::weak_ptr<const CompiledTicket>> weak_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

/// Thread-safe catalog of named, versioned model entries that lazily
/// compiles and caches CompiledTickets and drives each model's serving
/// fleet (hot swap, A/B routing, promotion).
class Registry {
 public:
  explicit Registry(RegistryOptions options = {});
  ~Registry();

  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Snapshots `model` as the next version of `name` (1-based, monotonic),
  /// fingerprints its content, persists it through the CheckpointStore
  /// (best-effort), and moves @latest. The model itself is untouched — it
  /// can keep training afterwards. The name must be non-empty and '@'-free.
  /// Non-const because Module::state_dict() walks mutable parameter
  /// references; the model is only read.
  int publish(const std::string& name, ResNet& model);

  /// Catalog inspection.
  std::vector<std::string> models() const;
  std::vector<VersionInfo> versions(const std::string& name) const;
  int latest(const std::string& name) const;
  /// 0 when no stable alias has been set.
  int stable(const std::string& name) const;
  /// Moves the @stable alias to an existing version.
  void set_stable(const std::string& name, int version);

  /// Resolves a reference to a concrete version number. A bare "name"
  /// means @stable when set, @latest otherwise. Throws std::out_of_range
  /// for unknown models/versions, std::invalid_argument for bad syntax,
  /// std::logic_error for "@stable" with no stable set.
  int resolve(const std::string& ref) const;

  /// The compiled plan for a reference — built on first use, then shared
  /// through the PlanCache: keyed by (checkpoint key × options fingerprint
  /// × kernel-numerics version), alive while anyone holds it, and with
  /// plan_cache_capacity > 0 retained beyond that by LRU rank.
  std::shared_ptr<const CompiledTicket> compiled(
      const std::string& ref, const CompileOptions& options = {});

  /// Point-in-time PlanCache counters (hits are avoided recompilations).
  PlanCache::Stats plan_cache_stats();

  /// The model's serving endpoint, created on first call with the resolved
  /// version as its fleet (server_options.shards replicas of one compiled
  /// plan; server_options.version is overwritten with "name@version").
  /// Later calls return the existing server unchanged — use deploy() /
  /// start_ab() to move its traffic.
  serving::Server& serve(const std::string& ref,
                         const serving::ServerOptions& server_options = {},
                         const CompileOptions& compile_options = {});
  /// nullptr when serve() has not been called for this model.
  serving::Server* find_server(const std::string& name);

  /// Resolve-for-wire: the serving endpoint for `ref` — created on first
  /// use, serving the resolved version with the given options — plus the
  /// resolved, live, and candidate version numbers in one consistent
  /// snapshot. The socket front-end uses the version triple to answer
  /// published-but-not-live references with a typed status instead of
  /// silently routing them to whatever fleet happens to own traffic.
  /// Throws what resolve()/serve() throw (unknown model/version, malformed
  /// reference, "@stable" with no stable set).
  WireRoute route_for_wire(const std::string& ref,
                           const serving::ServerOptions& server_options = {},
                           const CompileOptions& compile_options = {});

  /// Compiles the referenced version (cache hit when warm) and atomically
  /// hot-swaps the model's fleet to it: new traffic routes to the new
  /// epoch, in-flight requests drain on the old one, zero failed futures.
  /// Throws std::logic_error if serve() has not created the server yet.
  void deploy(const std::string& ref, const CompileOptions& options = {});

  /// Starts A/B routing `fraction` of the model's traffic to
  /// `candidate_ref`, decided per request by the deterministic
  /// serving::routes_to_candidate(seq, seed, fraction).
  void start_ab(const std::string& name, const std::string& candidate_ref,
                double fraction, std::uint64_t seed,
                const CompileOptions& options = {});
  /// Stops the A/B test; the candidate fleet drains.
  void stop_ab(const std::string& name);
  /// Promotes the running candidate to primary, moves @stable to it, and
  /// ends the A/B test. Returns the promoted version. Throws
  /// std::logic_error when no A/B test is running.
  int promote(const std::string& name);

  /// The version whose fleet owns primary traffic (0 before serve()).
  int live_version(const std::string& name) const;
  /// The version under A/B test (0 when none).
  int candidate_version(const std::string& name) const;

  const CheckpointStore& store() const { return store_; }

 private:
  /// One immutable published snapshot. Slots are never mutated or deleted
  /// after publish, and std::map nodes are address-stable, so a slot
  /// pointer taken under the catalog lock stays valid after it drops.
  struct VersionSlot {
    ResNetConfig config;
    StateDict state;
    CheckpointKey key;
    std::uint64_t fingerprint = 0;
  };
  struct Entry {
    std::map<int, VersionSlot> versions;
    int latest = 0;
    int stable = 0;  ///< 0 = unset
    std::unique_ptr<serving::Server> server;
    int live_version = 0;
    int candidate_version = 0;
  };

  Entry& find_entry_locked(const std::string& name);
  const Entry& find_entry_locked(const std::string& name) const;
  int resolve_locked(const Entry& entry, const ModelRef& ref) const;
  std::shared_ptr<const CompiledTicket> compile_slot(
      const VersionSlot& slot, const CompileOptions& options);

  RegistryOptions options_;
  CheckpointStore store_;

  mutable std::mutex catalog_mutex_;  ///< LockRank::kRegistryCatalog
  std::map<std::string, Entry> catalog_;

  std::mutex compile_mutex_;  ///< LockRank::kRegistryCompile
  /// Weak sharing + bounded strong retention (see PlanCache). Guarded by
  /// compile_mutex_.
  PlanCache plans_;
};

}  // namespace registry
}  // namespace rt
