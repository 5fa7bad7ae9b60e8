// CodeIndex: an open-addressed hash table of dense uint32 ids whose keys
// live elsewhere — a dictionary's value vector, a relation's row buffer.
//
// Each 8-byte slot packs an id with the high 32 bits of its key's hash (the
// tag). The table never stores or copies a key: a probe compares tags first
// and asks the owner to compare keys only on a tag match. A slot's home
// position is derived from its tag alone, so growing the table re-places
// slots without touching a key.
//
// RowIdSet builds the relation's exact row-membership index on top of it:
// ids are row numbers, keys are the rows of a row-major uint32 buffer.
#ifndef AJD_RELATION_CODE_INDEX_H_
#define AJD_RELATION_CODE_INDEX_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "relation/row_hash.h"

namespace ajd {

/// Open-addressed (linear probing) table of uint32 ids keyed by a caller
/// hash. Load stays at or below 1 / `slots_per_id`.
class CodeIndex {
 public:
  /// "No id": returned by lookups that miss; never a storable id.
  static constexpr uint32_t kNone = UINT32_MAX;

  /// A sparser table (more slots per id) costs memory and saves probes.
  explicit CodeIndex(size_t slots_per_id = 2) : slots_per_id_(slots_per_id) {}

  /// Number of stored ids.
  size_t size() const { return size_; }

  /// Grows the table so it holds `n` ids without further growth.
  void Reserve(size_t n) {
    size_t cap = slots_.empty() ? 16 : slots_.size();
    while (cap < slots_per_id_ * n) cap <<= 1;
    if (cap != slots_.size()) Rehash(cap);
  }

  /// Drops every id; keeps the capacity. Never throws.
  void Clear() {
    std::fill(slots_.begin(), slots_.end(), kEmptySlot);
    size_ = 0;
  }

  /// Hints the cache about the slot a probe for `hash` starts at.
  void Prefetch(uint64_t hash) const {
    if (!slots_.empty()) __builtin_prefetch(&slots_[Home(Tag(hash))]);
  }

  /// The id stored under a key equal to the probe's, or kNone. `eq(id)`
  /// compares the probe's key with the key of a stored id.
  template <typename Eq>
  uint32_t Find(uint64_t hash, Eq&& eq) const {
    if (slots_.empty()) return kNone;
    const uint32_t tag = Tag(hash);
    const size_t mask = slots_.size() - 1;
    for (size_t pos = Home(tag);; pos = (pos + 1) & mask) {
      const uint64_t slot = slots_[pos];
      if (slot == kEmptySlot) return kNone;
      if (static_cast<uint32_t>(slot >> 32) == tag &&
          eq(static_cast<uint32_t>(slot))) {
        return static_cast<uint32_t>(slot);
      }
    }
  }

  /// Stores `id` under `hash` unless an equal key is already stored; returns
  /// the stored id in that case, else kNone. Grows the table when needed
  /// (which may throw; the table is then unchanged).
  template <typename Eq>
  uint32_t FindOrInsert(uint64_t hash, uint32_t id, Eq&& eq) {
    Reserve(size_ + 1);
    const uint32_t tag = Tag(hash);
    const size_t mask = slots_.size() - 1;
    for (size_t pos = Home(tag);; pos = (pos + 1) & mask) {
      const uint64_t slot = slots_[pos];
      if (slot == kEmptySlot) {
        slots_[pos] = Pack(tag, id);
        ++size_;
        return kNone;
      }
      if (static_cast<uint32_t>(slot >> 32) == tag &&
          eq(static_cast<uint32_t>(slot))) {
        return static_cast<uint32_t>(slot);
      }
    }
  }

  /// Stores `id` under `hash` without looking for an equal key. The caller
  /// guarantees there is none and has reserved room (then it never throws).
  void Insert(uint64_t hash, uint32_t id) {
    Reserve(size_ + 1);
    Place(Pack(Tag(hash), id));
    ++size_;
  }

 private:
  static constexpr uint64_t kEmptySlot = ~uint64_t{0};

  static uint32_t Tag(uint64_t hash) {
    return static_cast<uint32_t>(hash >> 32);
  }
  static uint64_t Pack(uint32_t tag, uint32_t id) {
    return (uint64_t{tag} << 32) | id;
  }
  // Scales the tag onto the table (capacity is a power of two <= 2^32).
  size_t Home(uint32_t tag) const {
    return static_cast<size_t>((uint64_t{tag} * slots_.size()) >> 32);
  }

  void Place(uint64_t slot) {
    const size_t mask = slots_.size() - 1;
    size_t pos = Home(static_cast<uint32_t>(slot >> 32));
    while (slots_[pos] != kEmptySlot) pos = (pos + 1) & mask;
    slots_[pos] = slot;
  }

  void Rehash(size_t cap) {
    std::vector<uint64_t> old(cap, kEmptySlot);
    old.swap(slots_);
    for (uint64_t slot : old) {
      if (slot != kEmptySlot) Place(slot);
    }
  }

  size_t slots_per_id_;
  std::vector<uint64_t> slots_;  // tag << 32 | id; all ones when empty
  size_t size_ = 0;
};

/// Exact set of distinct rows of a row-major uint32 buffer, held as row
/// numbers: a stored id i stands for the `width` codes at base + i * width.
/// The set keeps no copy of any row, so every call passes the buffer's
/// current base pointer (the rows behind stored ids must be unchanged).
class RowIdSet {
 public:
  explicit RowIdSet(uint32_t width) : width_(width) {}

  /// Number of stored rows.
  size_t size() const { return index_.size(); }

  /// Room for `rows` stored rows without regrowth.
  void Reserve(size_t rows) { index_.Reserve(rows); }

  /// Stores `id` for `row` (with hash HashTuple(row, width)) unless the
  /// buffer at `base` already holds an equal stored row; true when stored.
  bool Insert(const uint32_t* row, uint64_t hash, uint32_t id,
              const uint32_t* base) {
    const size_t bytes = width_ * sizeof(uint32_t);
    return index_.FindOrInsert(hash, id, [&](uint32_t stored) {
             return std::memcmp(base + size_t{stored} * width_, row, bytes) ==
                    0;
           }) == CodeIndex::kNone;
  }

  /// Calls fn(i, hash) for rows [0, n) of `rows`, in order. Hashes a chunk
  /// of rows first, then walks it prefetching the slot a few rows ahead, so
  /// the probes' cache misses overlap.
  template <typename Fn>
  void ForEachHashed(const uint32_t* rows, uint64_t n, Fn&& fn) const {
    constexpr uint64_t kChunk = 256;
    constexpr uint64_t kAhead = 8;
    uint64_t hashes[kChunk];
    for (uint64_t start = 0; start < n; start += kChunk) {
      const uint64_t m = std::min(kChunk, n - start);
      for (uint64_t j = 0; j < m; ++j) {
        hashes[j] = HashTuple(rows + (start + j) * width_, width_);
      }
      for (uint64_t j = 0; j < m; ++j) {
        if (j + kAhead < m) index_.Prefetch(hashes[j + kAhead]);
        fn(start + j, hashes[j]);
      }
    }
  }

 private:
  uint32_t width_;
  CodeIndex index_;
};

}  // namespace ajd

#endif  // AJD_RELATION_CODE_INDEX_H_
