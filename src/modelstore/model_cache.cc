#include "modelstore/model_cache.h"

#include <cstring>

#include "ml/pickle.h"
#include "obs/trace.h"

namespace mlcs::modelstore {

namespace {

// xxHash64's primes and round.
constexpr uint64_t kP1 = 0x9E3779B185EBCA87ULL;
constexpr uint64_t kP2 = 0xC2B2AE3D27D4EB4FULL;
constexpr uint64_t kP4 = 0x85EBCA77C2B2AE63ULL;
constexpr uint64_t kP5 = 0x27D4EB2F165667C5ULL;

uint64_t Rotl(uint64_t x, int r) { return (x << r) | (x >> (64 - r)); }

uint64_t Word(const char* p) {
  uint64_t w = 0;
  std::memcpy(&w, p, sizeof(w));  // no misaligned load
  return w;
}

uint64_t Round(uint64_t acc, uint64_t w) {
  acc += w * kP2;
  return Rotl(acc, 31) * kP1;
}

uint64_t MergeLane(uint64_t h, uint64_t lane) {
  h ^= Round(0, lane);
  return h * kP1 + kP4;
}

}  // namespace

uint64_t ModelCache::Key(const std::string& bytes) {
  // Four independent lanes over 32-byte stripes keep four multiply chains
  // in flight rather than one serial chain per byte: every hit re-keys the
  // whole BLOB, so the key is most of a hit's cost. A collision would serve
  // the wrong model; with 64-bit keys over a handful of cached models the
  // risk is negligible (and it still yields a *valid* model).
  const char* p = bytes.data();
  const char* const end = p + bytes.size();
  uint64_t h = kP5;
  if (bytes.size() >= 32) {
    uint64_t a = kP1 + kP2, b = kP2, c = 0, d = 0 - kP1;
    for (; end - p >= 32; p += 32) {
      a = Round(a, Word(p));
      b = Round(b, Word(p + 8));
      c = Round(c, Word(p + 16));
      d = Round(d, Word(p + 24));
    }
    h = Rotl(a, 1) + Rotl(b, 7) + Rotl(c, 12) + Rotl(d, 18);
    h = MergeLane(MergeLane(MergeLane(MergeLane(h, a), b), c), d);
  }
  h += bytes.size();
  for (; end - p >= 8; p += 8) {
    h ^= Round(0, Word(p));
    h = Rotl(h, 27) * kP1 + kP4;
  }
  for (; p < end; ++p) {
    h ^= static_cast<unsigned char>(*p) * kP5;
    h = Rotl(h, 11) * kP1;
  }
  // Murmur3's fmix64 avalanche.
  h ^= h >> 33;
  h *= 0xFF51AFD7ED558CCDULL;
  h ^= h >> 33;
  h *= 0xC4CEB9FE1A85EC53ULL;
  h ^= h >> 33;
  return h;
}

Result<ml::ModelPtr> ModelCache::Get(const std::string& pickled_bytes) {
  // Spans every Get, so a hit's key cost shows under its caller's span.
  obs::ScopedSpan get_span("model_cache.get");
  get_span.set_bytes(pickled_bytes.size());
  uint64_t key = Key(pickled_bytes);
  {
    MutexLock lock(&mutex_);
    auto it = index_.find(key);
    if (it != index_.end()) {
      // Move to front (most recently used).
      lru_.splice(lru_.begin(), lru_, it->second);
      hits_.Add(1);
      return it->second->model;
    }
  }
  misses_.Add(1);
  // The deserialize-on-miss cost the snapshot cache exists to amortize.
  obs::ScopedSpan load_span("model_cache.load");
  load_span.set_bytes(pickled_bytes.size());
  MLCS_ASSIGN_OR_RETURN(ml::ModelPtr model, ml::pickle::Loads(pickled_bytes));
  MutexLock lock(&mutex_);
  auto existing = index_.find(key);
  if (existing != index_.end()) {
    // Another thread inserted it meanwhile: serve its snapshot, and refresh
    // it like any other use so it is not the next eviction.
    lru_.splice(lru_.begin(), lru_, existing->second);
    return existing->second->model;
  }
  lru_.push_front(Entry{key, model});
  index_[key] = lru_.begin();
  while (lru_.size() > capacity_) {
    index_.erase(lru_.back().key);
    lru_.pop_back();
  }
  return model;
}

size_t ModelCache::size() const {
  MutexLock lock(&mutex_);
  return lru_.size();
}

void ModelCache::Clear() {
  MutexLock lock(&mutex_);
  lru_.clear();
  index_.clear();
}

ModelCache& ModelCache::Global() {
  static ModelCache* cache = new ModelCache(16);
  return *cache;
}

}  // namespace mlcs::modelstore
