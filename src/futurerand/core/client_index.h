// ClientIndex: an append-only open-addressing map from client id to a dense
// int32 slot, backing the Server's columnar per-client state. The client
// population only ever grows (registration has no inverse), so the table
// needs no tombstones and a lookup is one hash + a short linear probe over
// a flat int32 array — in the report hot path this replaces chained
// unordered_map nodes (pointer-chasing, two cache misses per lookup) with
// at most one miss for table sizes that fit in cache.

#ifndef FUTURERAND_CORE_CLIENT_INDEX_H_
#define FUTURERAND_CORE_CLIENT_INDEX_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "futurerand/common/macros.h"

namespace futurerand::core {

/// Maps int64 client ids to dense slots 0..size()-1 in insertion order.
/// Copyable; not thread-safe (the owning Server serializes access).
class ClientIndex {
 public:
  /// The slot of `id`, or -1 if absent.
  int32_t Find(int64_t id) const {
    if (ids_.empty()) {
      return -1;
    }
    // Registered populations are almost always a dense arithmetic
    // progression (a fleet registers first_id..first_id+n-1 in order; a
    // mod-K shard sees every K-th id, still in order). While that holds,
    // the slot is pure arithmetic — no memory touched at all, where the
    // hash probe below costs a cache miss per lookup in the report hot
    // path. The table is maintained on every Insert regardless, so the
    // first irregular id just flips this off with no rebuild.
    if (regular_) {
      if (id < first_id_) {
        return -1;
      }
      // Exact in uint64: id >= first_id_, so the distance is < 2^64.
      const uint64_t offset =
          static_cast<uint64_t>(id) - static_cast<uint64_t>(first_id_);
      const auto count = static_cast<uint64_t>(size());
      if (stride_ == 1) {
        return offset < count ? static_cast<int32_t>(offset) : -1;
      }
      if (offset % stride_ != 0) {
        return -1;
      }
      const uint64_t slot = offset / stride_;
      return slot < count ? static_cast<int32_t>(slot) : -1;
    }
    size_t bucket = Hash(id) & mask_;
    while (true) {
      const int32_t slot = table_[bucket];
      if (slot < 0) {
        return -1;
      }
      if (ids_[static_cast<size_t>(slot)] == id) {
        return slot;
      }
      bucket = (bucket + 1) & mask_;
    }
  }

  /// Appends `id` (which must not be present — use Find first) and returns
  /// its new slot.
  int32_t Insert(int64_t id) {
    FR_CHECK_MSG(ids_.size() <
                     static_cast<size_t>(std::numeric_limits<int32_t>::max()),
                 "client index exceeds 2^31 - 1 entries");
    if ((ids_.size() + 1) * 2 > table_.size()) {
      Rehash(table_.empty() ? kInitialBuckets : table_.size() * 2);
    }
    const auto slot = static_cast<int32_t>(ids_.size());
    if (ids_.empty()) {
      first_id_ = id;
    } else if (regular_) {
      // The progression holds while every id exceeds the previous one by
      // the same step. Compared step by step (never as first + stride *
      // size, which can overflow), so any int64 ids are safe.
      const int64_t last = ids_.back();
      const uint64_t step =
          static_cast<uint64_t>(id) - static_cast<uint64_t>(last);
      if (id <= last || (ids_.size() > 1 && step != stride_)) {
        regular_ = false;
      } else {
        stride_ = step;
      }
    }
    ids_.push_back(id);
    size_t bucket = Hash(id) & mask_;
    while (table_[bucket] >= 0) {
      bucket = (bucket + 1) & mask_;
    }
    table_[bucket] = slot;
    return slot;
  }

  /// Slot -> id, in insertion order.
  const std::vector<int64_t>& ids() const { return ids_; }

  int64_t size() const { return static_cast<int64_t>(ids_.size()); }

  void Reserve(size_t n) {
    ids_.reserve(n);
    size_t buckets = kInitialBuckets;
    while (buckets < n * 2) {
      buckets *= 2;
    }
    if (buckets > table_.size()) {
      Rehash(buckets);
    }
  }

  /// Heap bytes of the index itself (for memory accounting).
  int64_t ApproxMemoryBytes() const {
    return static_cast<int64_t>(ids_.capacity() * sizeof(int64_t) +
                                table_.capacity() * sizeof(int32_t));
  }

 private:
  static constexpr size_t kInitialBuckets = 16;

  // SplitMix64 finalizer: full-avalanche, so sequential ids spread evenly.
  static uint64_t Hash(int64_t id) {
    auto x = static_cast<uint64_t>(id);
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return x;
  }

  void Rehash(size_t new_buckets) {
    table_.assign(new_buckets, -1);
    mask_ = new_buckets - 1;
    for (size_t slot = 0; slot < ids_.size(); ++slot) {
      size_t bucket = Hash(ids_[slot]) & mask_;
      while (table_[bucket] >= 0) {
        bucket = (bucket + 1) & mask_;
      }
      table_[bucket] = static_cast<int32_t>(slot);
    }
  }

  std::vector<int64_t> ids_;    // slot -> id
  std::vector<int32_t> table_;  // open-addressed buckets; -1 = empty
  size_t mask_ = 0;             // table_.size() - 1 (power of two)
  // While the ids form first_id_ + stride_ * slot (stride_ > 0), Find is
  // arithmetic; the first id off the progression clears regular_ forever.
  bool regular_ = true;
  int64_t first_id_ = 0;
  uint64_t stride_ = 1;
};

}  // namespace futurerand::core

#endif  // FUTURERAND_CORE_CLIENT_INDEX_H_
