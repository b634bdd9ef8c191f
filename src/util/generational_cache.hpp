// banger/util/generational_cache.hpp
//
// A thread-safe, string-keyed, bounded memo with a segmented
// (two-generation) LRU policy. Entries live in a `hot` shard; when it
// fills, the previous generation (`cold`) is dropped and hot becomes
// cold. Anything touched at least once per generation is promoted back
// to hot and survives indefinitely, so a long-lived serve/stream process
// under cap pressure evicts only entries it stopped using — it never
// rebuilds its whole working set at once the way a clear-everything
// policy would.
//
// Shards map the FNV-1a hash of the key to a collision chain that
// compares full keys. Values are built outside the lock and inserted
// with a double check, so concurrent first builders of one key do
// redundant work, never wrong work. Values are returned by copy; cache
// cheap handles (shared_ptr, pits::Program) rather than big objects.
//
// User: the routine cache (analyze::routine_cache) that `check`, `trial`,
// `run` and `stream` share.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "util/strings.hpp"

namespace banger::util {

template <typename Value>
class GenerationalCache {
 public:
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;     ///< builds (first sight of a key)
    std::uint64_t evictions = 0;  ///< entries dropped at generation flips
  };

  /// `cap` is per generation; worst-case residency is 2*cap entries.
  explicit GenerationalCache(std::size_t cap) : cap_(cap ? cap : 1) {}

  /// The value cached under `key`; on a miss, `build()`'s result, which
  /// is then cached. An exception from `build` propagates and caches
  /// nothing, so failures re-raise on every call.
  template <typename Build>
  Value get(const std::string& key, Build&& build) {
    const std::uint64_t hash = fnv1a64(key);
    {
      std::lock_guard lock(mutex_);
      if (auto it = hot_.find(hash); it != hot_.end()) {
        for (const Entry& entry : it->second) {
          if (entry.key == key) {
            ++stats_.hits;
            return entry.value;
          }
        }
      }
      if (auto it = cold_.find(hash); it != cold_.end()) {
        std::vector<Entry>& chain = it->second;
        for (std::size_t i = 0; i < chain.size(); ++i) {
          if (chain[i].key == key) {
            ++stats_.hits;
            Entry entry = std::move(chain[i]);
            chain.erase(chain.begin() + static_cast<std::ptrdiff_t>(i));
            if (chain.empty()) cold_.erase(it);
            --cold_size_;
            Value value = entry.value;
            insert_hot_locked(hash, std::move(entry));
            return value;
          }
        }
      }
    }
    Value value = build();
    std::lock_guard lock(mutex_);
    ++stats_.misses;  // a build happened, even if the race below loses
    // Double-checked insert: a concurrent first builder may have won the
    // race; reuse its entry instead of inserting a duplicate that
    // inflates hot_size_ toward the cap. Both inserts and promotions
    // target `hot`, so checking hot alone suffices.
    if (auto it = hot_.find(hash); it != hot_.end()) {
      for (const Entry& existing : it->second) {
        if (existing.key == key) return existing.value;
      }
    }
    insert_hot_locked(hash, Entry{key, value});
    return value;
  }

  [[nodiscard]] Stats stats() const {
    std::lock_guard lock(mutex_);
    return stats_;
  }

 private:
  struct Entry {
    std::string key;
    Value value;
  };
  using Shard = std::map<std::uint64_t, std::vector<Entry>>;

  /// Mutex held. Inserts into `hot`, flipping generations when full.
  void insert_hot_locked(std::uint64_t hash, Entry entry) {
    if (hot_size_ >= cap_) {
      // Generation flip: the cold shard holds entries untouched for a
      // whole generation — drop it and demote hot. Anything still in
      // use gets promoted back before the next flip, so the working set
      // survives; only genuinely idle entries are rebuilt.
      stats_.evictions += cold_size_;
      cold_ = std::move(hot_);
      cold_size_ = hot_size_;
      hot_.clear();
      hot_size_ = 0;
    }
    hot_[hash].push_back(std::move(entry));
    ++hot_size_;
  }

  std::size_t cap_;
  mutable std::mutex mutex_;
  Shard hot_;
  Shard cold_;
  std::size_t hot_size_ = 0;
  std::size_t cold_size_ = 0;
  Stats stats_;
};

}  // namespace banger::util
