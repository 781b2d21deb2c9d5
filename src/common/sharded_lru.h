// Generic sharded LRU map: canonical string keys → small copyable values.
//
// The prediction service's response cache (src/serve/lru_cache.h) is its
// one user. The storage shape is N power-of-two shards, each an
// independently locked unordered_map + intrusive LRU list, so concurrent
// probes on different shards never contend.
//
// Thread-safety: all public methods are safe to call from any thread.
#ifndef SRC_COMMON_SHARDED_LRU_H_
#define SRC_COMMON_SHARDED_LRU_H_

#include <cstdint>
#include <functional>
#include <iterator>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

namespace perfiface {

template <typename V>
class ShardedLru {
 public:
  // capacity: total entries across all shards; 0 disables the map
  // (Get always misses, Put is a no-op). num_shards is rounded up to a
  // power of two and never exceeds one entry per shard.
  explicit ShardedLru(std::size_t capacity, std::size_t num_shards = 16)
      : capacity_(capacity) {
    if (capacity_ == 0) {
      return;
    }
    std::size_t shards = 1;
    while (shards < (num_shards == 0 ? 1 : num_shards)) {
      shards <<= 1;
    }
    while (shards > 1 && capacity_ / shards == 0) {
      shards >>= 1;
    }
    shard_mask_ = shards - 1;
    per_shard_capacity_ = (capacity_ + shards - 1) / shards;
    shards_.reserve(shards);
    for (std::size_t i = 0; i < shards; ++i) {
      shards_.push_back(std::make_unique<Shard>());
    }
  }

  // On hit, copies the entry into *out, refreshes its recency, and returns
  // true. (The service counts hits and misses in its own metrics.)
  bool Get(const std::string& key, V* out) {
    if (!enabled()) {
      return false;
    }
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.index.find(std::string_view(key));
    if (it == shard.index.end()) {
      return false;
    }
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    *out = it->second->second;
    return true;
  }

  // Inserts or refreshes; evicts the shard's least-recently-used entry
  // when the shard is at capacity.
  void Put(const std::string& key, const V& value) {
    if (!enabled()) {
      return;
    }
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.index.find(std::string_view(key));
    if (it != shard.index.end()) {
      it->second->second = value;
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      return;
    }
    if (shard.lru.size() < per_shard_capacity_) {
      shard.lru.emplace_front(key, value);
      shard.index.emplace(std::string_view(shard.lru.front().first), shard.lru.begin());
      return;
    }
    // At capacity the evicted entry becomes the new one: its list node moves
    // to the front with the key assigned in place, and its index node is
    // re-keyed, so the insert allocates nothing once the key buffer fits.
    // A buffer too small, or more than twice the key's size, is replaced by
    // one of the key's size, so keys of mixed lengths never hold more than
    // twice the memory fresh inserts' would.
    const auto victim = std::prev(shard.lru.end());
    auto node = shard.index.extract(std::string_view(victim->first));
    std::string& stored = victim->first;
    if (key.size() <= stored.capacity() && stored.capacity() <= 2 * key.size()) {
      stored.assign(key);
    } else {
      stored = std::string(key);
    }
    victim->second = value;
    shard.lru.splice(shard.lru.begin(), shard.lru, victim);
    node.key() = std::string_view(victim->first);
    shard.index.insert(std::move(node));
    ++shard.evictions;
  }

  bool enabled() const { return capacity_ > 0; }
  std::size_t capacity() const { return capacity_; }

  std::uint64_t evictions() const {
    std::uint64_t total = 0;
    for (const auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->mu);
      total += shard->evictions;
    }
    return total;
  }

  std::size_t size() const {
    std::size_t total = 0;
    for (const auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->mu);
      total += shard->lru.size();
    }
    return total;
  }

 private:
  // Line-aligned, so one shard's lock and counts never share a line with
  // another shard's; everything in it is guarded by its mutex.
  struct alignas(64) Shard {
    std::mutex mu;
    // Most-recent at the front; list nodes own the key so the map can hold
    // string_views into them without a second allocation.
    std::list<std::pair<std::string, V>> lru;
    std::unordered_map<std::string_view,
                       typename std::list<std::pair<std::string, V>>::iterator>
        index;
    std::uint64_t evictions = 0;
  };

  Shard& ShardFor(const std::string& key) {
    const std::size_t h = std::hash<std::string_view>{}(key);
    // Mix the high bits into the shard choice so the shard index and the
    // unordered_map bucket (which uses the low bits) stay decorrelated.
    return *shards_[(h >> 16) & shard_mask_];
  }

  std::size_t capacity_ = 0;
  std::size_t per_shard_capacity_ = 0;
  std::size_t shard_mask_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace perfiface

#endif  // SRC_COMMON_SHARDED_LRU_H_
