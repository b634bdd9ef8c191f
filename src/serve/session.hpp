// banger/serve/session.hpp
//
// Named payload store for multi-tenant sessions. A client uploads a
// design or machine once (`{"op":"upload","name":"lu","kind":"design",
// "text":"..."}`) and later requests reference it by name instead of
// resending the text. The store only keeps raw text plus its digest —
// parsing and schedule derivation stay in the ArtifactCache,
// so two clients uploading identical text under different names, or
// sending it inline, still share every derived artifact.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace banger::serve {

struct SessionEntry {
  std::string kind;  // "design" | "machine"
  std::string text;
  std::uint64_t digest = 0;  ///< util::digest64(text): the cache key
};

class SessionStore {
 public:
  /// Inserts or replaces a named payload whose util::digest64 the
  /// caller has already taken; returns its FNV-1a `upload` hash.
  std::uint64_t put(const std::string& name, const std::string& kind,
                    std::string text, std::uint64_t digest);

  /// Looks up a named payload without copying it: a later upload under
  /// the same name replaces the store's pointer, not this entry. Throws
  /// Error{Name} when `name` is unknown and Error{Type} when it holds
  /// the wrong kind.
  [[nodiscard]] std::shared_ptr<const SessionEntry> get(
      const std::string& name, const std::string& kind) const;

  [[nodiscard]] std::size_t size() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<const SessionEntry>> entries_;
};

}  // namespace banger::serve
