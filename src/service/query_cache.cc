#include "service/query_cache.h"

#include "util/check.h"

namespace lb2::service {

QueryCache::QueryCache(size_t max_entries) : max_entries_(max_entries) {
  LB2_CHECK_MSG(max_entries >= 1, "cache capacity must be >= 1");
}

CacheEntryPtr QueryCache::Get(const Fingerprint& fp) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = map_.find(fp.hash);
  if (it == map_.end()) return nullptr;
  // Bump to most-recently-used.
  lru_.splice(lru_.begin(), lru_, it->second);
  return *it->second;
}

void QueryCache::Put(CacheEntryPtr entry) {
  LB2_CHECK(entry != nullptr);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = map_.find(entry->fingerprint.hash);
  if (it != map_.end()) {
    // Same plan compiled twice (e.g. two leaders against a torn-down
    // in-flight record): keep the newer module, drop the old reference.
    bytes_ -= (*it->second)->bytes;
    lru_.erase(it->second);
    map_.erase(it);
  }
  bytes_ += entry->bytes;
  lru_.push_front(std::move(entry));
  map_[lru_.front()->fingerprint.hash] = lru_.begin();
  while (lru_.size() > max_entries_) {
    CacheEntryPtr victim = lru_.back();
    bytes_ -= victim->bytes;
    map_.erase(victim->fingerprint.hash);
    lru_.pop_back();
    ++evictions_;
    // `victim` may still be executing on another thread; the shared_ptr
    // keeps its JitModule mapped until that run returns.
  }
}

bool QueryCache::Erase(const Fingerprint& fp) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = map_.find(fp.hash);
  if (it == map_.end()) return false;
  bytes_ -= (*it->second)->bytes;
  lru_.erase(it->second);
  map_.erase(it);
  return true;
}

size_t QueryCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

int64_t QueryCache::bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_;
}

int64_t QueryCache::evictions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return evictions_;
}

}  // namespace lb2::service
