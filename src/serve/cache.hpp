// banger/serve/cache.hpp
//
// Content-hashed artifact cache. Generalizes the `call_once` compiled-
// Program cache in the PITS VM: any derived artifact (parsed graph,
// machine, schedule, rendered response, ...) is keyed by a 64-bit
// util::digest64 of what produced it, built exactly once even under
// concurrent lookups (single-flight via shared_future), and evicted in
// least-recently-used order once the entry cap is exceeded.
//
// Entries are immutable once built — the cache hands out
// shared_ptr<const T>, so hits on every thread share one artifact.
#pragma once

#include <cstdint>
#include <functional>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "obs/trace.hpp"
#include "util/strings.hpp"

namespace banger::serve {

/// Key for a cached artifact: the artifact kind (e.g. "graph",
/// "response") plus the content hash of everything the build depends
/// on. Mixing the kind into the map key keeps identical payloads with
/// different derivations (a graph vs. its schedule) distinct. Lookups
/// compare only these two fields, so the hash must not collide across
/// the payloads a server sees.
struct CacheKey {
  std::string kind;
  std::uint64_t hash = 0;

  [[nodiscard]] bool operator==(const CacheKey& o) const {
    return hash == o.hash && kind == o.kind;
  }
};

struct CacheKeyHash {
  std::size_t operator()(const CacheKey& k) const noexcept {
    return static_cast<std::size_t>(
        util::fnv1a64(k.kind, util::kFnvOffsetBasis ^ k.hash));
  }
};

class ArtifactCache {
 public:
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::size_t entries = 0;
  };

  explicit ArtifactCache(std::size_t capacity = 256);

  /// Returns the artifact for `key`, building it with `build` on a
  /// miss. Concurrent callers for the same key share one build
  /// (single-flight); if the build throws, the entry is removed and the
  /// exception propagates to every waiter, so a later request retries.
  template <typename T>
  std::shared_ptr<const T> get_or_build(
      const CacheKey& key, const std::function<std::shared_ptr<const T>()>& build) {
    auto erased = lookup(key, [&]() -> std::shared_ptr<const void> {
      return std::static_pointer_cast<const void>(build());
    });
    return std::static_pointer_cast<const T>(erased);
  }

  [[nodiscard]] Stats stats() const;
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

 private:
  struct Entry {
    std::shared_future<std::shared_ptr<const void>> artifact;
    bool ready = false;  // future resolved successfully; safe to evict
    std::list<CacheKey>::iterator lru;
  };

  std::shared_ptr<const void> lookup(
      const CacheKey& key,
      const std::function<std::shared_ptr<const void>()>& build);

  void note(const char* which, const std::string& kind) const;

  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::unordered_map<CacheKey, Entry, CacheKeyHash> entries_;
  std::list<CacheKey> lru_;  // front = most recently used
  Stats stats_;
};

}  // namespace banger::serve
