#include "engine/cache_arbiter.h"

#include <algorithm>

#include "util/check.h"

namespace ajd {

CacheArbiter::CacheArbiter(ArbiterOptions options) : options_(options) {}

void CacheArbiter::RegisterEngine(const void* engine, EvictFn evict) {
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = engines_.emplace(engine, EngineRecord{});
  AJD_CHECK_MSG(inserted, "engine %p registered twice", engine);
  it->second.evict = std::move(evict);
}

void CacheArbiter::ReleaseEngine(const void* engine) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = engines_.find(engine);
  if (it == engines_.end()) return;
  AJD_CHECK(total_bytes_ >= it->second.bytes);
  total_bytes_ -= it->second.bytes;
  for (auto& [key, entry] : it->second.entries) {
    (void)key;
    lru_.erase(entry.lru_it);
  }
  engines_.erase(it);
}

void CacheArbiter::Charge(
    const void* engine,
    const std::vector<std::pair<AttrSet, size_t>>& entries) {
  if (entries.empty()) return;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = engines_.find(engine);
  AJD_CHECK_MSG(it != engines_.end(), "charge from unregistered engine %p",
                engine);
  EngineRecord& rec = it->second;
  for (const auto& [key, bytes] : entries) {
    auto [et, inserted] = rec.entries.emplace(key, Entry{});
    if (inserted) {
      et->second.bytes = bytes;
      rec.bytes += bytes;
      total_bytes_ += bytes;
      lru_.push_front(LruKey{engine, key});
      et->second.lru_it = lru_.begin();
      ++stats_.charges;
    } else {
      // The engine dedups inserts under its own mutex, so a re-charge of a
      // live key only happens after the arbiter evicted it and the engine
      // recomputed — in which case it arrives as `inserted`. Anything else
      // is a recency signal.
      lru_.splice(lru_.begin(), lru_, et->second.lru_it);
      ++stats_.touches;
    }
  }
  EvictToBudgetLocked();
}

void CacheArbiter::Touch(const void* engine, AttrSet key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = engines_.find(engine);
  if (it == engines_.end()) return;
  auto et = it->second.entries.find(key);
  if (et == it->second.entries.end()) return;
  lru_.splice(lru_.begin(), lru_, et->second.lru_it);
  ++stats_.touches;
}

void CacheArbiter::Discharge(const void* engine,
                             const std::vector<AttrSet>& keys) {
  if (keys.empty()) return;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = engines_.find(engine);
  if (it == engines_.end()) return;
  EngineRecord& rec = it->second;
  for (AttrSet key : keys) {
    auto et = rec.entries.find(key);
    if (et == rec.entries.end()) continue;
    AJD_CHECK(rec.bytes >= et->second.bytes &&
              total_bytes_ >= et->second.bytes);
    rec.bytes -= et->second.bytes;
    total_bytes_ -= et->second.bytes;
    lru_.erase(et->second.lru_it);
    rec.entries.erase(et);
  }
}

size_t CacheArbiter::EffectiveFloorLocked() const {
  if (engines_.empty()) return options_.engine_floor_bytes;
  return std::min(options_.engine_floor_bytes,
                  options_.budget_bytes / engines_.size());
}

void CacheArbiter::EvictToBudgetLocked() {
  // One backward walk of the global LRU list: the tail is the coldest
  // accounted entry, and list order is exactly the order the old
  // linear-scan-by-tick selected victims in (every charge/touch both
  // splices to the front and bumps the tick, so position and tick are
  // order-isomorphic). Entries of engines at or below the floor are
  // skipped; engine bytes only shrink during the walk, so a skipped entry
  // never needs revisiting within the pass.
  //
  // Termination: every iteration either erases one entry or moves the
  // cursor one node toward the front. Progress past the budget: whenever
  // total > budget, some engine must sit above the floor (sum of
  // per-engine min(bytes, floor) <= num_engines * floor <= budget by the
  // floor clamp), so an evictable entry exists behind the cursor.
  const size_t floor = EffectiveFloorLocked();
  auto it = lru_.end();
  while (total_bytes_ > options_.budget_bytes && it != lru_.begin()) {
    auto cur = std::prev(it);
    auto rec_it = engines_.find(cur->engine);
    AJD_CHECK(rec_it != engines_.end());
    EngineRecord& rec = rec_it->second;
    if (rec.bytes <= floor) {
      it = cur;
      continue;
    }
    const AttrSet key = cur->key;
    auto et = rec.entries.find(key);
    AJD_CHECK(et != rec.entries.end());
    const size_t bytes = et->second.bytes;
    AJD_CHECK(rec.bytes >= bytes && total_bytes_ >= bytes);
    rec.bytes -= bytes;
    total_bytes_ -= bytes;
    rec.entries.erase(et);
    lru_.erase(cur);  // `it` stays valid: it never points at `cur`
    ++stats_.evictions;
    // Engine-side drop, under the arbiter -> engine lock order (see the
    // header's locking contract). The callback tolerates already-gone keys.
    rec.evict(key);
  }
}

size_t CacheArbiter::AccountedBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_bytes_;
}

size_t CacheArbiter::EngineBytes(const void* engine) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = engines_.find(engine);
  return it == engines_.end() ? 0 : it->second.bytes;
}

size_t CacheArbiter::NumEngines() const {
  std::lock_guard<std::mutex> lock(mu_);
  return engines_.size();
}

ArbiterStats CacheArbiter::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

size_t CacheArbiter::EffectiveFloorBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return EffectiveFloorLocked();
}

}  // namespace ajd
