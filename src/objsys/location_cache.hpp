// Per-node object-location cache.
//
// Each node of a sharded directory deployment keeps a local cache of
// object → host mappings so the common lookup never leaves the node. The
// cache is deliberately dumb: it stores whatever the last lookup or update
// said, stamped with a logical or wall clock, and the *consistency
// strategy* (docs/directory.md) decides when an entry is trusted, chased
// through forwarding pointers, or invalidated.
//
// Keyed by ObjectId on every side: the live runtime gives each object a
// dense id when it is created (or recovered from the store), so its caches
// share this class with the simulator and the property-test model.
//
// Thread-safe: the live runtime invalidates entries from the migration
// path while invocation threads look them up concurrently (the race the
// TSan suite in tests/objsys/location_cache_test.cpp pins down). The
// simulator and the property-test model use the same class single-threaded
// — one mutex acquisition per op is noise there.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <unordered_map>

#include "objsys/ids.hpp"

namespace omig::objsys {

/// A cached location: where the object was last known to live, and when
/// that knowledge was written (lease-TTL strategies age entries by stamp).
struct CachedLocation {
  std::uint64_t node = 0;
  std::uint64_t stamp = 0;

  friend bool operator==(const CachedLocation&,
                         const CachedLocation&) = default;
};

/// Object-id keyed cache (simulator, property-test model, live runtime).
class LocationCache {
public:
  /// The entry for `key`, or nullopt. Counts a hit or a miss.
  [[nodiscard]] std::optional<CachedLocation> get(ObjectId key) const {
    std::lock_guard lock{mutex_};
    auto it = map_.find(key);
    if (it == map_.end()) {
      ++misses_;
      return std::nullopt;
    }
    ++hits_;
    return it->second;
  }

  void put(ObjectId key, std::uint64_t node, std::uint64_t stamp) {
    std::lock_guard lock{mutex_};
    map_[key] = CachedLocation{node, stamp};
  }

  /// Drops the entry; true if one was present (an invalidation that
  /// actually reached cached state, the count eager strategies report).
  bool invalidate(ObjectId key) {
    std::lock_guard lock{mutex_};
    if (map_.erase(key) == 0) return false;
    ++invalidations_;
    return true;
  }

  /// Drops everything (node crash: the cache dies with the node).
  void clear() {
    std::lock_guard lock{mutex_};
    map_.clear();
  }

  [[nodiscard]] std::size_t size() const {
    std::lock_guard lock{mutex_};
    return map_.size();
  }

  [[nodiscard]] std::uint64_t hits() const {
    std::lock_guard lock{mutex_};
    return hits_;
  }
  [[nodiscard]] std::uint64_t misses() const {
    std::lock_guard lock{mutex_};
    return misses_;
  }
  [[nodiscard]] std::uint64_t invalidations() const {
    std::lock_guard lock{mutex_};
    return invalidations_;
  }

private:
  mutable std::mutex mutex_;
  std::unordered_map<ObjectId, CachedLocation> map_;
  mutable std::uint64_t hits_ = 0;
  mutable std::uint64_t misses_ = 0;
  std::uint64_t invalidations_ = 0;
};

}  // namespace omig::objsys
