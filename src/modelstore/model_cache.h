#ifndef MLCS_MODELSTORE_MODEL_CACHE_H_
#define MLCS_MODELSTORE_MODEL_CACHE_H_

#include <cstdint>
#include <list>
#include <string>
#include <unordered_map>

#include "common/mutex.h"
#include "common/result.h"
#include "ml/model.h"
#include "obs/metrics.h"

namespace mlcs::modelstore {

/// The paper's §5.1 future-work item, implemented: "directly store
/// snapshots of the in-memory representation of the models to avoid this
/// (de)serialization overhead".
///
/// An LRU cache keyed by a hash of the pickled BLOB (Key): the first Get
/// deserializes and snapshots the model; subsequent predict calls with the
/// same BLOB reuse the in-memory object. Content addressing keeps the
/// cache correct under model replacement (a retrained model has different
/// bytes, hence a different key). Thread-safe.
class ModelCache {
 public:
  explicit ModelCache(size_t capacity = 16) : capacity_(capacity) {}

  ModelCache(const ModelCache&) = delete;
  ModelCache& operator=(const ModelCache&) = delete;

  /// Returns the cached model for these bytes, deserializing on miss.
  Result<ml::ModelPtr> Get(const std::string& pickled_bytes);

  size_t size() const;
  uint64_t hits() const { return hits_.Value(); }
  uint64_t misses() const { return misses_.Value(); }
  void Clear();

  /// Process-wide cache used by the `_cached` predict UDFs.
  static ModelCache& Global();

  /// The cache key of a pickled BLOB: a 64-bit xxHash64-style hash read a
  /// word at a time. Held in memory only and never persisted, so its
  /// values may change between builds.
  static uint64_t Key(const std::string& pickled_bytes);

 private:
  struct Entry {
    uint64_t key;
    ml::ModelPtr model;
  };

  const size_t capacity_;
  mutable Mutex mutex_{"ModelCache::mutex_"};
  std::list<Entry> lru_ MLCS_GUARDED_BY(mutex_);  // front = most recent
  std::unordered_map<uint64_t, std::list<Entry>::iterator> index_
      MLCS_GUARDED_BY(mutex_);
  /// Per-cache counts mirrored into the process-wide
  /// `mlcs.model_cache.hits` / `.misses` registry series.
  obs::MirroredCounter hits_{"mlcs.model_cache.hits"};
  obs::MirroredCounter misses_{"mlcs.model_cache.misses"};
};

}  // namespace mlcs::modelstore

#endif  // MLCS_MODELSTORE_MODEL_CACHE_H_
