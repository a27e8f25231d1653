// Sharded object-location directory with per-node caches.
//
// The paper's location-service variants (name-server lookup, forwarding
// addresses, broadcast — Section 4.3) all assume a single directory, which
// becomes the scalability choke point once node counts grow ≫ 10. This
// module shards the directory by object-id hash: object → shard →
// owner node, so lookup traffic spreads across the deployment instead of
// funnelling through one name server. Each node additionally keeps a local
// LocationCache; migrations leave forwarding pointers at the old host, and
// a pluggable ConsistencyStrategy decides how stale cache entries are
// healed — the paper's variants become cache-consistency strategies:
//
//   EagerInvalidate  every migration invalidates the object's entry in all
//                    caches (the "immediate update" scheme, fanned out).
//   LazyForward      stale entries are chased through forwarding pointers
//                    until the chain reaches the current host (the
//                    "forwarding address" scheme, bounded by hop_limit).
//   LeaseTtl         cache entries expire after a lease; within the lease
//                    a bounded number of stale hops may occur.
//
// This class is the *model*: a pure, deterministic, single-threaded state
// machine with an explicit logical clock, shared by the simulator's
// LocationService (which charges message latencies for the operations the
// model reports) and by the property suite in
// tests/objsys/sharded_directory_test.cpp, which drives random
// move/lookup/crash interleavings against it and checks the contract:
// every resolved lookup returns the current host via a forwarding chain of
// ≤ shard-count hops, and stale hits are bounded by the strategy. The live
// runtime implements the same protocol over real wire messages
// (DirLookup/DirUpdate, see src/transport/wire.hpp and runtime/live_system).
// There the nodes' slices and the shard hash use object names, the key the
// wire carries, while the coordinator's lookup caches are this module's
// id-keyed LocationCache over the dense ids it assigns at create().
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "objsys/ids.hpp"
#include "objsys/location_cache.hpp"

namespace omig::objsys {

/// Which directory implementation a run uses. Central is the seed
/// behaviour (single map / name server); Sharded spreads the directory
/// across nodes and enables the per-node caches.
enum class DirectoryKind { Central, Sharded };

/// How per-node caches are kept consistent with the moving truth.
enum class ConsistencyStrategy { EagerInvalidate, LazyForward, LeaseTtl };

[[nodiscard]] std::string to_string(DirectoryKind kind);
[[nodiscard]] std::string to_string(ConsistencyStrategy strategy);
[[nodiscard]] std::optional<DirectoryKind> directory_from_string(
    const std::string& text);
[[nodiscard]] std::optional<ConsistencyStrategy> strategy_from_string(
    const std::string& text);

struct ShardedDirectoryOptions {
  std::size_t nodes = 1;
  /// Number of directory shards; 0 means one shard per node.
  std::size_t shards = 0;
  ConsistencyStrategy strategy = ConsistencyStrategy::LazyForward;
  /// LeaseTtl only: cache entries older than this many logical ticks are
  /// discarded on lookup.
  std::uint64_t lease_ttl = 16;
  /// Maximum forwarding hops chased before falling back to the shard
  /// owner; 0 means "shard count" (the bound the property suite asserts).
  std::size_t hop_limit = 0;
};

/// Outcome of one lookup, with enough provenance for cost models and for
/// the property checker.
struct DirectoryLookup {
  /// Host the lookup settled on. Only meaningful when `resolved`.
  NodeId host = NodeId::invalid();
  /// Forwarding hops chased (0 when the cache or owner answered directly).
  std::size_t hops = 0;
  /// The local cache answered with the current host — no messages at all.
  bool cache_hit = false;
  /// The local cache answered, but the entry pointed at an old host.
  bool stale = false;
  /// The authoritative shard owner was consulted.
  bool owner_consulted = false;
  /// False when neither a forwarding chain nor the shard owner could
  /// produce a live host (owner crashed and not yet recovered). Callers
  /// retry after recovery — a lookup never settles on a dead host.
  bool resolved = false;
};

/// What a migration did to the directory, for cost accounting: the shard
/// owner that was updated plus every node whose cache entry was eagerly
/// invalidated.
struct DirectoryMove {
  NodeId owner = NodeId::invalid();
  std::vector<NodeId> invalidated;
};

struct DirectoryStats {
  std::uint64_t lookups = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t stale_hits = 0;
  std::uint64_t forward_hops = 0;
  std::uint64_t owner_lookups = 0;
  std::uint64_t updates = 0;
  std::uint64_t invalidations = 0;
  std::uint64_t unresolved = 0;
};

class ShardedDirectory {
public:
  explicit ShardedDirectory(ShardedDirectoryOptions options);

  /// Register `object` as living on `home`. Seeds the owning shard.
  void insert(ObjectId object, NodeId home);
  [[nodiscard]] bool contains(ObjectId object) const;

  /// Resolve `object` from the point of view of node `from`: local cache
  /// first, then forwarding chain (strategy permitting), then the shard
  /// owner. Updates `from`'s cache with whatever was learned.
  DirectoryLookup lookup(NodeId from, ObjectId object);

  /// Record a migration to `dest`: updates the authoritative entry, the
  /// owning shard's slice, leaves a forwarding pointer at the old host,
  /// and (EagerInvalidate) drops the entry from every node cache.
  DirectoryMove record_move(ObjectId object, NodeId dest);

  /// Crash `node`: its shard slice, forwarding pointers, and cache are
  /// volatile state and vanish. Authoritative entries survive (they model
  /// the coordinator / durable layer underneath).
  void crash_node(NodeId node);

  /// Recover `node`: re-seed its shard slice from the authoritative map.
  void recover_node(NodeId node);

  [[nodiscard]] bool node_up(NodeId node) const;

  /// Advance the logical clock without doing work (ages LeaseTtl entries).
  void tick(std::uint64_t amount = 1);

  [[nodiscard]] std::size_t shard_of(ObjectId object) const;
  [[nodiscard]] NodeId shard_owner(std::size_t shard) const;
  [[nodiscard]] NodeId owner_of(ObjectId object) const;

  /// Current authoritative host (test/model oracle, not a protocol step).
  [[nodiscard]] NodeId current_host(ObjectId object) const;

  [[nodiscard]] std::size_t shards() const { return shards_; }
  [[nodiscard]] std::size_t hop_limit() const { return hop_limit_; }
  [[nodiscard]] ConsistencyStrategy strategy() const {
    return options_.strategy;
  }
  [[nodiscard]] const DirectoryStats& stats() const { return stats_; }
  [[nodiscard]] const LocationCache& cache(NodeId node) const;

private:
  struct NodeState {
    bool up = true;
    /// This node's slice of the directory: objects whose shard it owns.
    std::unordered_map<ObjectId, NodeId> slice;
    /// Forwarding pointers left behind when an object migrated away.
    std::unordered_map<ObjectId, NodeId> forward;
    LocationCache cache;
  };

  [[nodiscard]] bool fresh(const CachedLocation& entry) const;
  void cache_learn(NodeState& viewer, ObjectId object, NodeId host);

  ShardedDirectoryOptions options_;
  std::size_t shards_;
  std::size_t hop_limit_;
  /// Ground truth that survives crashes; mirrors the object registry /
  /// coordinator map the shards are a distributed index over.
  std::unordered_map<ObjectId, NodeId> authoritative_;
  std::vector<NodeState> nodes_;
  std::uint64_t now_ = 0;
  DirectoryStats stats_;
};

}  // namespace omig::objsys
