#include "serve/session.hpp"

#include <utility>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace banger::serve {

std::uint64_t SessionStore::put(const std::string& name,
                                const std::string& kind, std::string text,
                                std::uint64_t digest) {
  const std::uint64_t hash = util::fnv1a64(text);
  auto entry = std::make_shared<const SessionEntry>(
      SessionEntry{kind, std::move(text), digest});
  std::lock_guard<std::mutex> lock(mu_);
  entries_[name] = std::move(entry);
  return hash;
}

std::shared_ptr<const SessionEntry> SessionStore::get(
    const std::string& name, const std::string& kind) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    fail(ErrorCode::Name, "unknown session name '" + name +
                              "'; upload it first with {\"op\":\"upload\"}");
  }
  if (it->second->kind != kind) {
    fail(ErrorCode::Type, "session '" + name + "' holds a " +
                              it->second->kind + ", not a " + kind);
  }
  return it->second;
}

std::size_t SessionStore::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

}  // namespace banger::serve
