// Dense table keyed by a StrongId.
//
// The simulator's id spaces are contiguous: every ObjectId/NodeId is handed
// out sequentially by a registry, so a map keyed by one is really a sparse
// array in disguise. This container stores the values in a flat slot vector
// indexed by `id.value()` plus a byte per slot marking occupancy — lookups
// are one bounds check and one indexed load instead of a hash, and clear()
// keeps the slots' capacity for the next run.
//
// Iteration (for_each) visits occupied slots in ascending id order, so —
// unlike the unordered_maps this replaces — it is deterministic. Callers
// that previously tolerated unordered iteration are unaffected; callers
// that iterate get a stable order for free.
//
// Not a general map: memory is proportional to the largest id ever
// inserted, which is exactly right for registry-allocated ids and wrong for
// sparse ones.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/assert.hpp"

namespace omig::util {

template <class Id, class T>
class DenseTable {
public:
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  [[nodiscard]] bool contains(Id id) const {
    const std::size_t i = index(id);
    return i < used_.size() && used_[i];
  }

  /// Pointer to the value for `id`, or nullptr if absent.
  [[nodiscard]] T* find(Id id) {
    const std::size_t i = index(id);
    return i < used_.size() && used_[i] ? &slots_[i] : nullptr;
  }
  [[nodiscard]] const T* find(Id id) const {
    const std::size_t i = index(id);
    return i < used_.size() && used_[i] ? &slots_[i] : nullptr;
  }

  /// Value for `id`, default-constructing it if absent.
  T& operator[](Id id) { return try_emplace(id).first; }

  /// Inserts T{args...} under `id` if absent. Returns {value, inserted}.
  template <class... Args>
  std::pair<T&, bool> try_emplace(Id id, Args&&... args) {
    const std::size_t i = index(id);
    grow_to(i + 1);
    if (!used_[i]) {
      slots_[i] = T(std::forward<Args>(args)...);
      used_[i] = 1;
      ++size_;
      return {slots_[i], true};
    }
    return {slots_[i], false};
  }

  /// Removes `id`. Returns whether it was present. The slot object itself
  /// is kept (only marked unused) and reset by assignment on re-insert, so
  /// erase is O(1) with no deallocation of the slot vector.
  bool erase(Id id) {
    const std::size_t i = index(id);
    if (i >= used_.size() || !used_[i]) return false;
    used_[i] = 0;
    --size_;
    return true;
  }

  /// Drops every entry but keeps the slot capacity.
  void clear() {
    if (size_ == 0) return;
    std::fill(used_.begin(), used_.end(), std::uint8_t{0});
    size_ = 0;
  }

  /// Visits (Id, T&) for every occupied slot in ascending id order.
  template <class F>
  void for_each(F&& f) {
    for (std::size_t i = 0; i < used_.size(); ++i) {
      if (used_[i]) f(Id{static_cast<typename Id::value_type>(i)}, slots_[i]);
    }
  }
  template <class F>
  void for_each(F&& f) const {
    for (std::size_t i = 0; i < used_.size(); ++i) {
      if (used_[i]) f(Id{static_cast<typename Id::value_type>(i)}, slots_[i]);
    }
  }

private:
  [[nodiscard]] static std::size_t index(Id id) {
    OMIG_ASSERT(id.valid());
    return id.value();
  }

  void grow_to(std::size_t n) {
    if (n > used_.size()) {
      slots_.resize(n);
      used_.resize(n, 0);
    }
  }

  std::vector<T> slots_;
  std::vector<std::uint8_t> used_;  ///< 1 = slot occupied
  std::size_t size_ = 0;
};

}  // namespace omig::util
