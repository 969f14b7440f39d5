// Genome-keyed objective memoization shared by the evaluation engine.
//
// The parallel-GA models duplicate genomes constantly — elites copied
// unchanged into every generation, migrants cloned across islands and
// cluster ranks, crossover-skipped children that are verbatim parent
// copies. Each duplicate re-runs a full schedule decode today. EvalCache
// memoizes objective values by a well-mixed 64-bit genome hash so the
// Evaluator decodes each distinct genome once.
//
// Correctness over trust-the-hash: every entry stores the genome itself
// and a lookup only hits when the stored genome compares equal, so a
// 64-bit collision degrades to a miss (and the colliding insert replaces
// the entry) instead of silently returning a wrong objective. Cached
// values are produced by the same pure objective functions, so traces
// are bit-identical with the cache on or off.
//
// The table is sharded: each shard owns a mutex, an open hash map and an
// LRU list, so evaluator lanes, island threads and cluster ranks can
// share one cache with little contention. Counters are exact on every
// evaluation backend: an Evaluator looks up and inserts on its calling
// thread, in genome order. Only when several islands or ranks step
// concurrently into one shared cache can the hit/miss split of a genome
// they all breed in the same generation depend on timing (the values
// never do).
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "src/ga/genome.h"

namespace psga::ga {

/// Memoization policy (GaConfig::eval_cache, spec token `eval_cache=`).
enum class EvalCacheMode {
  kOff,        ///< no cache: every evaluation decodes
  kUnbounded,  ///< memoize everything, never evict
  kLru,        ///< bounded: evict the least-recently-used entries
};

struct EvalCacheConfig {
  EvalCacheMode mode = EvalCacheMode::kOff;
  /// Total entry budget across all shards (kLru only).
  std::size_t capacity = 1 << 16;
  /// Lock shards; clamped to >= 1. The default is plenty below ~32 lanes.
  int shards = 8;

  /// Semantic equality: fields that cannot affect behavior under `mode`
  /// (everything for kOff, capacity for kUnbounded) are ignored, so the
  /// SolverSpec round-trip contract holds for every reachable state.
  friend bool operator==(const EvalCacheConfig& a, const EvalCacheConfig& b) {
    if (a.mode != b.mode) return false;
    if (a.mode == EvalCacheMode::kOff) return true;
    if (a.shards != b.shards) return false;
    return a.mode != EvalCacheMode::kLru || a.capacity == b.capacity;
  }
};

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
  explicit EvalCache(EvalCacheConfig config);

  /// The one construction idiom every engine uses: a pre-built shared
  /// cache wins, otherwise `config` decides between a fresh cache and
  /// none at all.
  static EvalCachePtr make(const EvalCacheConfig& config,
                           EvalCachePtr shared = nullptr) {
    if (shared != nullptr) return shared;
    if (config.mode == EvalCacheMode::kOff) return nullptr;
    return std::make_shared<EvalCache>(config);
  }

  /// Memoized objective of `genome` (whose genome_hash() is `hash`), or
  /// nullopt. A hash match with a different stored genome is a miss.
  std::optional<double> lookup(std::uint64_t hash, const Genome& genome);

  /// Records `objective` for `genome`. A colliding entry (same hash,
  /// different genome) is replaced; an equal entry is refreshed in place.
  void insert(std::uint64_t hash, const Genome& genome, double objective);

  EvalCacheStats stats() const;
  /// Entries currently stored (sums the shards).
  std::size_t size() const;
  const EvalCacheConfig& config() const { return config_; }

 private:
  struct Entry {
    Genome genome;
    double objective = 0.0;
    /// Position in the shard's recency list (kLru only).
    std::list<std::uint64_t>::iterator lru;
  };
  struct Shard {
    mutable std::mutex mutex;
    std::unordered_map<std::uint64_t, Entry> map;
    std::list<std::uint64_t> order;  ///< front = most recently used
    EvalCacheStats stats;
  };

  Shard& shard_for(std::uint64_t hash) {
    // High bits pick the shard; the map keys on the full hash, and
    // genome_hash mixes well enough that both stay uniform.
    return *shards_[static_cast<std::size_t>(hash >> 32) % shards_.size()];
  }

  EvalCacheConfig config_;
  std::size_t shard_capacity_;  ///< per-shard entry bound (kLru)
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace psga::ga
