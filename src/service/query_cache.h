// Compiled-query cache: fingerprint → loaded shared object, with LRU
// eviction under an entry-count capacity.
//
// Entries are handed out as shared_ptrs, so eviction only drops the cache's
// reference — the dlopen handle is released (and the .so dlclose'd) when
// the last in-flight execution finishes. No query ever runs on unmapped
// code (the DBLAB/LegoBase binary-cache discipline, made refcount-safe).
#ifndef LB2_SERVICE_QUERY_CACHE_H_
#define LB2_SERVICE_QUERY_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "compile/lb2_compiler.h"
#include "service/fingerprint.h"

namespace lb2::service {

/// One cached compiled query plus the cost it amortizes.
struct CacheEntry {
  Fingerprint fingerprint;
  compile::CompiledQuery query;
  /// Staging+emission and external-compiler time paid to build this entry;
  /// every hit credits these to the service's compile-ms-saved counter.
  double codegen_ms = 0.0;
  double compile_ms = 0.0;
  /// Shared-object size (the lb2_cache_bytes gauge; generated source
  /// counted too since the entry keeps it for inspection).
  int64_t bytes = 0;
  // No per-entry run lock: the generated entry takes an explicit
  // lb2_exec_ctx per execution, so N threads may run the same entry
  // concurrently. Concurrency is bounded by the service's admission gate.
};

using CacheEntryPtr = std::shared_ptr<CacheEntry>;

/// Thread-safe LRU map. `max_entries` must be >= 1.
class QueryCache {
 public:
  explicit QueryCache(size_t max_entries);

  /// Returns the entry for `fp` (bumping it to most-recently-used), or
  /// nullptr on miss.
  CacheEntryPtr Get(const Fingerprint& fp);

  /// Inserts `entry`, evicting least-recently-used entries while over
  /// capacity. Replaces an existing entry with the same fingerprint.
  void Put(CacheEntryPtr entry);

  /// Drops the entry for `fp` if present (in-flight executions keep their
  /// shared_ptrs). Returns true if an entry was removed. Not counted as an
  /// eviction — this is deliberate retirement (e.g. a drift-stale entry),
  /// not budget pressure.
  bool Erase(const Fingerprint& fp);

  size_t size() const;
  int64_t bytes() const;
  int64_t evictions() const;

 private:
  const size_t max_entries_;

  mutable std::mutex mu_;
  std::list<CacheEntryPtr> lru_;  // front = most recently used
  std::unordered_map<uint64_t, std::list<CacheEntryPtr>::iterator> map_;
  int64_t bytes_ = 0;
  int64_t evictions_ = 0;
};

}  // namespace lb2::service

#endif  // LB2_SERVICE_QUERY_CACHE_H_
