/**
 * @file
 * Minimal intrusive-order LRU cache: an std::list holds entries in
 * recency order and an unordered_map indexes list iterators, so get,
 * put and eviction are all O(1). The serving engine does not use it
 * (its caches are serve::ShardedLruCache stripes over lab policies);
 * it is the test reference the `lru` policy is checked against
 * (CachePolicy.LruPolicyMatchesLegacyLruCache in test_lab).
 */

#ifndef DIFFTUNE_SERVE_LRU_CACHE_HH
#define DIFFTUNE_SERVE_LRU_CACHE_HH

#include <cstddef>
#include <list>
#include <unordered_map>
#include <utility>

#include "base/logging.hh"

namespace difftune::serve
{

template <typename Key, typename Value>
class LruCache
{
  public:
    explicit LruCache(size_t capacity) : capacity_(capacity)
    {
        panic_if(capacity == 0, "LRU cache capacity must be positive");
    }

    /**
     * Look up @p key; a hit refreshes its recency and returns a
     * pointer valid until the next put(). Miss returns nullptr.
     */
    const Value *
    get(const Key &key)
    {
        auto it = index_.find(key);
        if (it == index_.end())
            return nullptr;
        order_.splice(order_.begin(), order_, it->second);
        return &it->second->second;
    }

    /** Insert or refresh @p key, evicting the LRU entry when full. */
    void
    put(Key key, Value value)
    {
        auto it = index_.find(key);
        if (it != index_.end()) {
            it->second->second = std::move(value);
            order_.splice(order_.begin(), order_, it->second);
            return;
        }
        if (index_.size() >= capacity_) {
            index_.erase(order_.back().first);
            order_.pop_back();
        }
        order_.emplace_front(std::move(key), std::move(value));
        index_.emplace(order_.front().first, order_.begin());
    }

    size_t size() const { return index_.size(); }
    size_t capacity() const { return capacity_; }

  private:
    using Entry = std::pair<Key, Value>;

    size_t capacity_;
    std::list<Entry> order_; ///< front = most recently used
    std::unordered_map<Key, typename std::list<Entry>::iterator> index_;
};

} // namespace difftune::serve

#endif // DIFFTUNE_SERVE_LRU_CACHE_HH
