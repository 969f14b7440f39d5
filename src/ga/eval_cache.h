// Genome-keyed objective memoization shared by the evaluation engine.
//
// The parallel-GA models duplicate genomes constantly — elites copied
// unchanged into every generation, migrants cloned across islands and
// cluster ranks, crossover-skipped children that are verbatim parent
// copies. Each duplicate re-runs a full schedule decode today. EvalCache
// memoizes objective values by a 64-bit key (EvalCache::key) in a bounded
// LRU table, so the Evaluator decodes a genome again only once the table
// has evicted it.
//
// Correctness over trust-the-key: every entry stores the genome itself
// and a lookup only hits when the stored words equal the genome's, so a
// 64-bit collision degrades to a miss (and the colliding insert replaces
// the entry) instead of silently returning a wrong objective. Cached
// values are produced by the same pure objective functions, so traces
// are bit-identical with the cache on or off.
//
// The table is sharded: each shard owns a mutex and flat arrays — slot
// keys and objectives with intrusive recency links, the genomes inline
// at one fixed stride, and a power-of-two linear-probing index — so
// evaluator lanes, island threads and cluster ranks can share one cache
// with little contention, and a shard that has reached its budget
// allocates nothing per lookup, insert or eviction. Counters are exact on
// every evaluation backend: an Evaluator looks up and inserts on its
// calling thread, in genome order. Only when several islands or ranks
// step concurrently into one shared cache can the hit/miss split of a
// genome they all breed in the same generation depend on timing (the
// values never do).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>

#include "src/ga/genome.h"

namespace psga::ga {

/// Exact lifetime counters, aggregated over shards (RunResult::cache).
struct EvalCacheStats {
  long long hits = 0;       ///< lookups answered from the table
  long long misses = 0;     ///< lookups that had to decode
  long long inserts = 0;    ///< entries written (incl. collision rewrites)
  long long evictions = 0;  ///< entries dropped by the LRU bound

  /// Counter subtraction — per-run deltas from lifetime snapshots.
  EvalCacheStats& operator-=(const EvalCacheStats& other) {
    hits -= other.hits;
    misses -= other.misses;
    inserts -= other.inserts;
    evictions -= other.evictions;
    return *this;
  }
};

class EvalCache;
using EvalCachePtr = std::shared_ptr<EvalCache>;

class EvalCache {
 public:
  /// Lock shards per cache. A cache holding fewer entries builds one
  /// shard per entry, so the budget holds (lru:3 keeps 3 entries). The
  /// count is plenty below ~32 lanes.
  static constexpr std::size_t kShards = 8;

  /// A cache of at most `capacity` entries across its shards (spec token
  /// `eval_cache=lru:<capacity>`). Nothing is sized from the capacity up
  /// front: shards grow on demand.
  explicit EvalCache(std::size_t capacity);
  ~EvalCache();  // Shard is complete only in eval_cache.cpp

  /// The cache of `capacity` entries, or null (no cache) for 0.
  static EvalCachePtr make(std::size_t capacity) {
    return capacity > 0 ? std::make_shared<EvalCache>(capacity) : nullptr;
  }

  /// The cache key of `genome`: each chromosome is length-prefixed and
  /// absorbed 16 bytes per 64x64->128-bit multiply-fold, and a
  /// splitmix64 finalizer mixes the result. The high 32 bits pick the
  /// shard and the low bits the index slot. Equal genomes give equal
  /// keys; this is not genome_hash.
  static std::uint64_t key(const Genome& genome);

  /// Memoized objective of `genome` (whose key is `key`), or nullopt. A
  /// hit makes the entry the most recently used. A key match with a
  /// different stored genome is a miss, and so is a genome whose
  /// chromosome lengths differ from the cache's shape.
  std::optional<double> lookup(std::uint64_t key, const Genome& genome);

  /// Records `objective` for `genome`, evicting the shard's least
  /// recently used entry once it is full. An equal entry is refreshed in
  /// place; a colliding one (same key, different genome) is replaced.
  /// The first insert fixes the cache's shape (the three chromosome
  /// lengths); a genome of any other shape is never stored.
  void insert(std::uint64_t key, const Genome& genome, double objective);

  EvalCacheStats stats() const;
  /// Entries currently stored (sums the shards).
  std::size_t size() const;

 private:
  struct Shard;
  /// The chromosome lengths of every stored genome. A genome is stored as
  /// seq + assign + 2 * keys 32-bit words (a double takes two).
  struct Shape {
    std::size_t seq = 0;
    std::size_t assign = 0;
    std::size_t keys = 0;

    std::size_t stride() const { return seq + assign + 2 * keys; }
    bool equal(const std::uint32_t* words, const Genome& genome) const;
    void store(std::uint32_t* words, const Genome& genome) const;
  };

  Shard& shard_for(std::uint64_t key) const;
  /// True once the shape is published and `genome` has it.
  bool has_shape(const Genome& genome) const;
  /// Fixes the shape from `genome` unless another insert already did.
  void publish_shape(const Genome& genome);

  std::size_t shard_count_ = 1;
  std::uint32_t shard_budget_ = 0;  ///< per-shard entry bound
  std::unique_ptr<Shard[]> shards_;

  // Written once under shape_mutex_ before shaped_ is set, then read
  // without the mutex by any thread that has seen shaped_.
  std::atomic<bool> shaped_{false};
  std::mutex shape_mutex_;
  Shape shape_;
};

}  // namespace psga::ga
