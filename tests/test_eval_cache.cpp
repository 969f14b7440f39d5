// The evaluation cache must be an invisible optimization: with
// memoization on, every engine's best-fitness trace is bit-identical to
// the uncached run on every backend, only the number of decode calls
// changes. These tests pin that down, plus genome_hash, the key the
// cache computes, exact counter accounting (identical on every backend
// and pool width), evaluation budgets, the capacity and shape rules, and
// the flat table against a reference LRU.
#include "src/ga/eval_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "src/ga/problems.h"
#include "src/ga/solver.h"
#include "src/sched/classics.h"
#include "src/sched/taillard.h"

namespace psga::ga {
namespace {

ProblemPtr flow_shop() {
  return std::make_shared<FlowShopProblem>(
      sched::make_taillard(sched::taillard_20x5().front()));
}

Genome perm_genome(std::vector<int> seq) {
  Genome g;
  g.seq = std::move(seq);
  return g;
}

// --- genome hash -------------------------------------------------------------

TEST(GenomeHash, DeterministicAndEqualForEqualGenomes) {
  Genome a;
  a.seq = {3, 1, 0, 2};
  a.assign = {0, 1};
  a.keys = {0.25, 0.75};
  Genome b = a;
  EXPECT_EQ(genome_hash(a), genome_hash(a));
  EXPECT_EQ(genome_hash(a), genome_hash(b));
}

TEST(GenomeHash, AllPermutationsOfSixHashDistinct) {
  std::vector<int> seq = {0, 1, 2, 3, 4, 5};
  std::set<std::uint64_t> hashes;
  std::size_t count = 0;
  do {
    hashes.insert(genome_hash(perm_genome(seq)));
    ++count;
  } while (std::next_permutation(seq.begin(), seq.end()));
  EXPECT_EQ(count, 720u);
  EXPECT_EQ(hashes.size(), count) << "permutation hash collision";
}

TEST(GenomeHash, RandomPermutationAndKeyGenomesHashDistinct) {
  // Collision sweep over both encodings the survey uses most: distinct
  // genomes must map to distinct 64-bit hashes in samples far larger
  // than any population.
  par::Rng rng(99);
  const ProblemPtr problem = flow_shop();
  std::set<std::uint64_t> perm_hashes;
  std::set<std::vector<int>> perm_seen;
  for (int i = 0; i < 2000; ++i) {
    const Genome g = problem->random_genome(rng);
    perm_seen.insert(g.seq);
    perm_hashes.insert(genome_hash(g));
  }
  EXPECT_EQ(perm_hashes.size(), perm_seen.size());

  std::set<std::uint64_t> key_hashes;
  for (int i = 0; i < 2000; ++i) {
    Genome g;
    g.keys.resize(12);
    for (double& k : g.keys) k = rng.uniform();
    key_hashes.insert(genome_hash(g));
  }
  EXPECT_EQ(key_hashes.size(), 2000u) << "random-key hash collision";
}

TEST(GenomeHash, ChromosomeBoundariesDisambiguate) {
  // The same values split differently across chromosomes are different
  // genomes and must hash apart (length prefixes guarantee it).
  Genome seq_both;
  seq_both.seq = {1, 2};
  Genome split;
  split.seq = {1};
  split.assign = {2};
  Genome assign_both;
  assign_both.assign = {1, 2};
  Genome keys_only;
  keys_only.keys = {1.0, 2.0};
  std::set<std::uint64_t> hashes = {
      genome_hash(seq_both), genome_hash(split), genome_hash(assign_both),
      genome_hash(keys_only), genome_hash(Genome{})};
  EXPECT_EQ(hashes.size(), 5u);
}

TEST(GenomeHash, SingleSwapChangesHash) {
  const Genome a = perm_genome({0, 1, 2, 3, 4, 5, 6, 7});
  Genome b = a;
  std::swap(b.seq[2], b.seq[6]);
  EXPECT_NE(genome_hash(a), genome_hash(b));
}

// --- the cache's own key -----------------------------------------------------

TEST(EvalCacheKey, EqualGenomesGiveEqualKeys) {
  Genome a;
  a.seq = {3, 1, 0, 2};
  a.assign = {0, 1};
  a.keys = {0.25, 0.75};
  const Genome b = a;
  EXPECT_EQ(EvalCache::key(a), EvalCache::key(a));
  EXPECT_EQ(EvalCache::key(a), EvalCache::key(b));
}

TEST(EvalCacheKey, AllPermutationsOfSixKeyDistinct) {
  std::vector<int> seq = {0, 1, 2, 3, 4, 5};
  std::set<std::uint64_t> keys;
  std::size_t count = 0;
  do {
    keys.insert(EvalCache::key(perm_genome(seq)));
    ++count;
  } while (std::next_permutation(seq.begin(), seq.end()));
  EXPECT_EQ(count, 720u);
  EXPECT_EQ(keys.size(), count) << "permutation key collision";
}

TEST(EvalCacheKey, ChromosomeBoundariesDisambiguate) {
  Genome seq_both;
  seq_both.seq = {1, 2};
  Genome split;
  split.seq = {1};
  split.assign = {2};
  Genome assign_both;
  assign_both.assign = {1, 2};
  Genome keys_only;
  keys_only.keys = {1.0, 2.0};
  // Zero padding of a partial block must not alias a longer chromosome.
  Genome padded;
  padded.seq = {1, 2, 0};
  const std::set<std::uint64_t> keys = {
      EvalCache::key(seq_both), EvalCache::key(split),
      EvalCache::key(assign_both), EvalCache::key(keys_only),
      EvalCache::key(padded), EvalCache::key(Genome{})};
  EXPECT_EQ(keys.size(), 6u);
}

TEST(EvalCacheKey, SingleSwapChangesKey) {
  const Genome a = perm_genome({0, 1, 2, 3, 4, 5, 6, 7});
  Genome b = a;
  std::swap(b.seq[2], b.seq[6]);
  EXPECT_NE(EvalCache::key(a), EvalCache::key(b));
}

// --- cache unit behavior -----------------------------------------------------

TEST(EvalCacheUnit, MissInsertHitAndCounters) {
  EvalCache cache(16);
  const Genome g = perm_genome({2, 0, 1});
  const std::uint64_t h = genome_hash(g);
  EXPECT_FALSE(cache.lookup(h, g).has_value());
  cache.insert(h, g, 42.5);
  const auto hit = cache.lookup(h, g);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, 42.5);
  const EvalCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.inserts, 1);
  EXPECT_EQ(stats.evictions, 0);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(EvalCacheUnit, HashCollisionIsAMissAndInsertReplaces) {
  // Force a collision through the explicit-hash API: same key, different
  // genomes. The cache must never serve the wrong objective.
  EvalCache cache(16);
  const Genome a = perm_genome({0, 1, 2});
  const Genome b = perm_genome({2, 1, 0});
  const std::uint64_t shared_hash = 0xdeadbeefcafef00dULL;
  cache.insert(shared_hash, a, 10.0);
  EXPECT_FALSE(cache.lookup(shared_hash, b).has_value());
  cache.insert(shared_hash, b, 20.0);  // replaces the colliding entry
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_FALSE(cache.lookup(shared_hash, a).has_value());
  const auto hit = cache.lookup(shared_hash, b);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, 20.0);
}

TEST(EvalCacheUnit, LruEvictsLeastRecentlyUsed) {
  // 24 entries over the 8 shards: 3 per shard. The keys' high halves
  // pick the shard, so keys below 2^32 all land in shard 0 and its
  // eviction order is deterministic.
  EvalCache cache(24);
  const Genome a = perm_genome({0, 1, 2});
  const Genome b = perm_genome({1, 2, 0});
  const Genome c = perm_genome({2, 0, 1});
  const Genome d = perm_genome({0, 2, 1});
  cache.insert(1, a, 1.0);
  cache.insert(2, b, 2.0);
  cache.insert(3, c, 3.0);
  EXPECT_EQ(cache.size(), 3u);
  // Touch a: recency becomes a, c, b — so the next insert evicts b.
  EXPECT_TRUE(cache.lookup(1, a).has_value());
  cache.insert(4, d, 4.0);
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.stats().evictions, 1);
  EXPECT_FALSE(cache.lookup(2, b).has_value()) << "b survived";
  EXPECT_TRUE(cache.lookup(1, a).has_value());
  EXPECT_TRUE(cache.lookup(3, c).has_value());
  EXPECT_TRUE(cache.lookup(4, d).has_value());
}

TEST(EvalCacheUnit, OffShapeGenomeIsACountedMissAndNeverStored) {
  // The first insert fixes the shape (chromosome lengths); a genome of any
  // other shape misses, and inserting it changes nothing.
  EvalCache cache(16);
  const Genome a = perm_genome({2, 0, 1});
  cache.insert(EvalCache::key(a), a, 1.0);
  Genome longer = perm_genome({2, 0, 1, 3});
  Genome with_keys = a;
  with_keys.keys = {0.5};
  for (const Genome& off : {longer, with_keys}) {
    const std::uint64_t key = EvalCache::key(off);
    EXPECT_FALSE(cache.lookup(key, off).has_value());
    cache.insert(key, off, 2.0);
    EXPECT_FALSE(cache.lookup(key, off).has_value());
  }
  EXPECT_EQ(cache.size(), 1u);
  const EvalCacheStats stats = cache.stats();
  EXPECT_EQ(stats.inserts, 1);
  EXPECT_EQ(stats.misses, 4);
  EXPECT_EQ(stats.hits, 0);
  EXPECT_EQ(cache.lookup(EvalCache::key(a), a), 1.0);
}

TEST(EvalCacheUnit, LruSizeNeverExceedsCapacity) {
  // The capacity is the total budget across all shards, so the shard
  // count is clamped to the capacity.
  const ProblemPtr problem = flow_shop();
  par::Rng rng(23);
  std::vector<Genome> genomes;
  for (int i = 0; i < 1000; ++i) genomes.push_back(problem->random_genome(rng));
  for (std::size_t capacity = 1; capacity <= 16; ++capacity) {
    SCOPED_TRACE("capacity=" + std::to_string(capacity));
    EvalCache cache(capacity);
    for (const Genome& g : genomes) {
      cache.insert(EvalCache::key(g), g, 1.0);
      ASSERT_LE(cache.size(), capacity);
    }
    EXPECT_GE(cache.size(), 1u);
  }
}

TEST(EvalCacheUnit, HugeCapacityBuildsCheaply) {
  // Nothing is sized from the capacity up front: shards grow on demand.
  EvalCache cache(1'000'000'000'000);
  const Genome g = perm_genome({1, 0, 2});
  cache.insert(EvalCache::key(g), g, 3.0);
  EXPECT_EQ(cache.lookup(EvalCache::key(g), g), 3.0);
  EXPECT_EQ(cache.size(), 1u);
}

// --- differential test against a reference LRU ------------------------------

// The policy EvalCache implements, written the obvious way: per shard, a
// std::list of keys in recency order plus a std::map of entries. One entry
// per key; a lookup hits only on an equal genome; an insert refreshes an
// equal genome, replaces a colliding one, and evicts the shard's least
// recently used entry past the budget. Shards are picked by the key's
// high 32 bits, and their count is clamped like EvalCache's.
class ReferenceCache {
 public:
  explicit ReferenceCache(std::size_t capacity)
      : shards_(std::clamp<std::size_t>(capacity, 1, EvalCache::kShards)),
        budget_(std::max<std::size_t>(1, capacity / shards_.size())) {}

  std::optional<double> lookup(std::uint64_t key, const Genome& genome) {
    Shard& shard = shard_for(key);
    const auto it = shard.map.find(key);
    if (!has_shape(genome) || it == shard.map.end() ||
        !(it->second.genome == genome)) {
      ++stats_.misses;
      return std::nullopt;
    }
    shard.order.splice(shard.order.begin(), shard.order, it->second.lru);
    ++stats_.hits;
    return it->second.objective;
  }

  void insert(std::uint64_t key, const Genome& genome, double objective) {
    if (!shape_) {
      shape_ = {genome.seq.size(), genome.assign.size(), genome.keys.size()};
    }
    if (!has_shape(genome)) return;
    Shard& shard = shard_for(key);
    ++stats_.inserts;
    const auto it = shard.map.find(key);
    if (it != shard.map.end()) {
      it->second.genome = genome;
      it->second.objective = objective;
      shard.order.splice(shard.order.begin(), shard.order, it->second.lru);
      return;
    }
    shard.order.push_front(key);
    shard.map.emplace(key, Entry{genome, objective, shard.order.begin()});
    if (shard.map.size() > budget_) {
      shard.map.erase(shard.order.back());
      shard.order.pop_back();
      ++stats_.evictions;
    }
  }

  const EvalCacheStats& stats() const { return stats_; }
  std::size_t size() const {
    std::size_t size = 0;
    for (const Shard& shard : shards_) size += shard.map.size();
    return size;
  }

 private:
  struct Entry {
    Genome genome;
    double objective = 0.0;
    std::list<std::uint64_t>::iterator lru;
  };
  struct Shard {
    std::list<std::uint64_t> order;  ///< front = most recently used
    std::map<std::uint64_t, Entry> map;
  };

  Shard& shard_for(std::uint64_t key) {
    return shards_[static_cast<std::size_t>(key >> 32) % shards_.size()];
  }
  bool has_shape(const Genome& genome) const {
    return shape_ && genome.seq.size() == std::get<0>(*shape_) &&
           genome.assign.size() == std::get<1>(*shape_) &&
           genome.keys.size() == std::get<2>(*shape_);
  }

  std::vector<Shard> shards_;
  std::size_t budget_ = 0;
  std::optional<std::tuple<std::size_t, std::size_t, std::size_t>> shape_;
  EvalCacheStats stats_;
};

/// One model run: the cache's capacity. Capacities 1, 2 and 3 build
/// that many shards; from 8 up the clamp builds EvalCache::kShards, with
/// budgets that split evenly (8, 64, 4096) or not (20 keeps 16).
struct ModelCase {
  std::size_t capacity;
};

class EvalCacheModel : public ::testing::TestWithParam<ModelCase> {};

TEST_P(EvalCacheModel, MatchesTheReferenceLruOnRandomTraffic) {
  const std::size_t capacity = GetParam().capacity;
  const std::size_t shards = std::min(capacity, EvalCache::kShards);
  par::Rng rng(1000 * capacity + shards);

  // A small pool of genomes with all three chromosomes: four bases, each
  // with a twin differing only in `assign` and one only in `keys`, so
  // every chromosome takes part in the equality check. Plus two genomes
  // of other shapes that must never be stored.
  std::vector<Genome> pool;
  for (int g = 0; g < 4; ++g) {
    Genome genome;
    for (int i = 0; i < 6; ++i) genome.seq.push_back(static_cast<int>(rng.below(4)));
    for (int i = 0; i < 3; ++i) genome.assign.push_back(static_cast<int>(rng.below(3)));
    for (int i = 0; i < 2; ++i) genome.keys.push_back(rng.below(4) * 0.25);
    Genome assign_twin = genome;
    assign_twin.assign[rng.below(3)] += 1;
    Genome keys_twin = genome;
    keys_twin.keys[rng.below(2)] += 0.125;
    pool.push_back(std::move(genome));
    pool.push_back(std::move(assign_twin));
    pool.push_back(std::move(keys_twin));
  }
  Genome short_seq = pool[0];
  short_seq.seq.pop_back();
  Genome no_keys = pool[1];
  no_keys.keys.clear();

  // Keys from a small space: random high halves spread them over the
  // shards; half of them share a few low halves, so index probe runs
  // collide and deletions shift. Most traffic pairs key k with genome
  // k % 12; the rest is a same-key, different-genome collision.
  const std::size_t key_space = std::min<std::size_t>(2 * capacity + 8, 512);
  std::vector<std::uint64_t> keys;
  for (std::size_t k = 0; k < key_space; ++k) {
    const std::uint64_t low = rng.chance(0.5) ? rng.below(8) : (rng() & 0xffffffffu);
    keys.push_back((rng() & 0xffffffff00000000ULL) | low);
  }

  EvalCache cache(capacity);
  ReferenceCache model(capacity);
  long long mismatches = 0;
  for (int op = 0; op < 100'000; ++op) {
    const std::size_t k = rng.below(keys.size());
    const Genome* genome = &pool[k % pool.size()];
    if (rng.chance(0.2)) genome = &pool[rng.below(pool.size())];
    if (rng.chance(0.02)) genome = rng.chance(0.5) ? &short_seq : &no_keys;
    if (rng.chance(0.5)) {
      const std::optional<double> got = cache.lookup(keys[k], *genome);
      const std::optional<double> want = model.lookup(keys[k], *genome);
      mismatches += got != want;
    } else {
      const double objective = static_cast<double>(rng.below(1000));
      cache.insert(keys[k], *genome, objective);
      model.insert(keys[k], *genome, objective);
    }
  }
  EXPECT_EQ(mismatches, 0);
  const EvalCacheStats got = cache.stats();
  const EvalCacheStats& want = model.stats();
  EXPECT_EQ(got.hits, want.hits);
  EXPECT_EQ(got.misses, want.misses);
  EXPECT_EQ(got.inserts, want.inserts);
  EXPECT_EQ(got.evictions, want.evictions);
  EXPECT_EQ(cache.size(), model.size());
  EXPECT_GT(want.hits, 0);
  if (capacity < key_space) {
    EXPECT_GT(want.evictions, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ShardsAndModes, EvalCacheModel,
    ::testing::Values(ModelCase{1}, ModelCase{2}, ModelCase{3}, ModelCase{8},
                      ModelCase{20}, ModelCase{64}, ModelCase{4096}),
    [](const ::testing::TestParamInfo<ModelCase>& info) {
      const std::size_t capacity = info.param.capacity;
      const std::size_t shards = std::min(capacity, EvalCache::kShards);
      return "lru_shards" + std::to_string(shards) +
             (capacity > shards ? "_capacity" + std::to_string(capacity)
                                : std::string());
    });

// --- evaluator integration: exact accounting ---------------------------------

TEST(EvaluatorCache, BatchCountersMatchHandComputedDuplicates) {
  const ProblemPtr problem = flow_shop();
  par::Rng rng(7);
  std::vector<Genome> batch;
  for (int i = 0; i < 6; ++i) batch.push_back(problem->random_genome(rng));
  batch.push_back(batch[0]);  // two in-batch duplicates
  batch.push_back(batch[1]);

  auto cache = std::make_shared<EvalCache>(1024);
  Evaluator evaluator(problem, EvalBackend::kSerial, nullptr, cache);
  std::vector<double> out(batch.size());
  // First pass: nothing is memoized yet; in-batch duplicates decode
  // independently (inserts land after the batch), so all 8 miss.
  evaluator.evaluate(batch, out);
  EXPECT_EQ(cache->stats().misses, 8);
  EXPECT_EQ(cache->stats().hits, 0);
  EXPECT_EQ(evaluator.decode_calls(), 8);
  EXPECT_EQ(cache->size(), 6u);
  // Second pass over the same batch: all 8 hit, zero decodes.
  std::vector<double> again(batch.size());
  evaluator.evaluate(batch, again);
  EXPECT_EQ(again, out);
  EXPECT_EQ(cache->stats().hits, 8);
  EXPECT_EQ(evaluator.decode_calls(), 8);
  EXPECT_EQ(evaluator.evaluations(), 16);
}

TEST(EvaluatorCache, HeavyElitismCloneOnlyRunDecodesEachGenomeOnce) {
  // crossover_rate = mutation_rate = 0 makes every child a verbatim copy
  // of a parent, and distinct seed genomes make the initial population
  // the complete genome universe: after the first generation decode,
  // every evaluation is a cache hit — the hand-computable extreme of the
  // heavy-elitism duplication the cache exists for.
  const ProblemPtr problem = flow_shop();
  const int pop = 12;
  const int generations = 5;
  GaConfig cfg;
  cfg.population = pop;
  cfg.elites = 4;
  cfg.ops.crossover_rate = 0.0;
  cfg.ops.mutation_rate = 0.0;
  cfg.seed = 41;
  cfg.eval_cache = std::make_shared<EvalCache>(1024);
  par::Rng seeder(17);
  std::set<std::uint64_t> distinct;
  while (static_cast<int>(cfg.initial_population.size()) < pop) {
    Genome g = problem->random_genome(seeder);
    if (distinct.insert(genome_hash(g)).second) {
      cfg.initial_population.push_back(std::move(g));
    }
  }
  SimpleGa engine(problem, cfg);
  const RunResult r = engine.run(StopCondition::generations(generations));
  ASSERT_TRUE(r.cache.has_value());
  EXPECT_EQ(r.cache->misses, pop);
  EXPECT_EQ(r.cache->inserts, pop);
  EXPECT_EQ(r.cache->hits, pop * generations);
  EXPECT_EQ(engine.decode_calls(), pop);
  EXPECT_EQ(r.evaluations, pop * (generations + 1));
}

TEST(EvaluatorCache, SharedAndReusedCachesReportPerRunDeltas) {
  // RunResult::cache must be this run's delta, not cache-lifetime
  // totals: rerun the same engine, and hand one pre-built cache to two
  // engines in sequence — every result keeps hits+misses==evaluations.
  const ProblemPtr problem = flow_shop();
  const StopCondition stop = StopCondition::generations(5);
  Solver solver = Solver::build(
      SolverSpec::parse("engine=simple pop=12 elites=4 seed=51 "
                        "eval_cache=lru:65536"),
      problem);
  const RunResult first = solver.run(stop);
  const RunResult second = solver.run(stop);  // warm cache, same engine
  ASSERT_TRUE(second.cache.has_value());
  // The per-run delta invariant: lifetime totals span both runs, so
  // without the baseline snapshot the second result would double-count.
  EXPECT_EQ(first.cache->hits + first.cache->misses, first.evaluations);
  EXPECT_EQ(second.cache->hits + second.cache->misses, second.evaluations);

  // An engine keeps the cache it built at construction, so a rerun
  // replays the first run into it: every evaluation of the memetic
  // rerun, local-search climbs included, is a hit.
  Solver memetic = Solver::build(
      SolverSpec::parse("engine=memetic pop=12 interval=2 refine=2 budget=30 "
                        "seed=55 eval_cache=lru:65536"),
      problem);
  (void)memetic.run(stop);
  const RunResult rerun = memetic.run(stop);
  ASSERT_TRUE(rerun.cache.has_value());
  EXPECT_EQ(rerun.cache->hits + rerun.cache->misses, rerun.evaluations);
  EXPECT_EQ(rerun.cache->misses, 0);
  EXPECT_EQ(rerun.cache->hits, rerun.evaluations);

  auto shared = std::make_shared<EvalCache>(1024);
  for (const std::uint64_t seed : {61ull, 61ull}) {
    GaConfig cfg;
    cfg.population = 12;
    cfg.seed = seed;
    cfg.eval_cache = shared;
    IslandGaConfig island_cfg;
    island_cfg.islands = 2;
    island_cfg.base = cfg;
    IslandGa engine(problem, island_cfg);
    const RunResult r = engine.run(stop);
    ASSERT_TRUE(r.cache.has_value());
    EXPECT_EQ(r.cache->hits + r.cache->misses, r.evaluations);
  }
}

TEST(EvaluatorCache, EvaluationBudgetCountsCacheHitsExactlyOnce) {
  // Regression: a cache hit must count toward the evaluation budget
  // exactly like a decode, so the budget cuts every variant at the same
  // generation with identical traces.
  const ProblemPtr problem = flow_shop();
  const StopCondition budget = StopCondition::evaluation_budget(95);
  const std::string base = "engine=simple pop=10 elites=4 seed=29";
  const RunResult reference =
      Solver::build(SolverSpec::parse(base + " eval=serial"), problem)
          .run(budget);
  EXPECT_GE(reference.evaluations, 95);
  for (const char* variant : {" eval=serial eval_cache=lru:65536",
                              " eval=pool eval_cache=lru:4096"}) {
    SCOPED_TRACE(variant);
    const RunResult got =
        Solver::build(SolverSpec::parse(base + variant), problem).run(budget);
    EXPECT_EQ(reference.generations, got.generations);
    EXPECT_EQ(reference.evaluations, got.evaluations);
    EXPECT_EQ(reference.history, got.history);
    EXPECT_EQ(reference.best.seq, got.best.seq);
  }
}

// The suite name is the one this stress test had while it drove the
// (now deleted) asynchronous pipeline; it now drives the pool backend.
TEST(AsyncPipeline, StressOneToSixteenThreadsRepeatedSeeds) {
  // 1-16 pool workers x repeated seeds, cache off and on: every run
  // equals the serial one, and the cache counters are the serial ones.
  const ProblemPtr problem = flow_shop();
  const StopCondition stop = StopCondition::generations(5);
  for (const std::uint64_t seed : {1ull, 5ull, 9ull, 13ull, 17ull}) {
    GaConfig cfg;
    cfg.population = 16;
    cfg.elites = 2;
    cfg.seed = seed;
    SimpleGa serial(problem, cfg);
    const RunResult expect = serial.run(stop);
    GaConfig cached_cfg = cfg;
    cached_cfg.eval_cache = std::make_shared<EvalCache>(4096);
    SimpleGa serial_cached(problem, cached_cfg);
    const RunResult expect_cached = serial_cached.run(stop);
    ASSERT_TRUE(expect_cached.cache.has_value());
    for (const int threads : {1, 2, 3, 4, 8, 16}) {
      SCOPED_TRACE("seed=" + std::to_string(seed) +
                   " threads=" + std::to_string(threads));
      par::ThreadPool pool(threads);
      GaConfig pool_cfg = cfg;
      pool_cfg.eval_backend = EvalBackend::kThreadPool;
      SimpleGa pooled(problem, pool_cfg, &pool);
      const RunResult got = pooled.run(stop);
      EXPECT_EQ(expect.history, got.history);
      EXPECT_EQ(expect.best.seq, got.best.seq);
      EXPECT_EQ(expect.evaluations, got.evaluations);

      GaConfig pool_cached_cfg = cached_cfg;
      pool_cached_cfg.eval_backend = EvalBackend::kThreadPool;
      pool_cached_cfg.eval_cache = std::make_shared<EvalCache>(4096);
      SimpleGa pooled_cached(problem, pool_cached_cfg, &pool);
      const RunResult got_cached = pooled_cached.run(stop);
      EXPECT_EQ(expect.history, got_cached.history);
      EXPECT_EQ(expect.best.seq, got_cached.best.seq);
      EXPECT_EQ(expect.evaluations, got_cached.evaluations);
      ASSERT_TRUE(got_cached.cache.has_value());
      EXPECT_EQ(expect_cached.cache->hits, got_cached.cache->hits);
      EXPECT_EQ(expect_cached.cache->misses, got_cached.cache->misses);
      EXPECT_EQ(expect_cached.cache->inserts, got_cached.cache->inserts);
    }
  }
}

TEST(EvaluatorCache, HitsPlusMissesEqualsEvaluations) {
  Solver solver = Solver::build(
      SolverSpec::parse("engine=simple pop=16 elites=6 seed=3 "
                        "eval_cache=lru:4096"),
      flow_shop());
  const RunResult r = solver.run(StopCondition::generations(8));
  ASSERT_TRUE(r.cache.has_value());
  EXPECT_EQ(r.cache->hits + r.cache->misses, r.evaluations);
  EXPECT_GE(r.cache->hits, 6 * 8) << "elites alone guarantee this many hits";
  EXPECT_NE(solver.engine().eval_cache(), nullptr);
}

// --- cache-on vs cache-off trace equivalence, all engines x backends ---------

const char* kEngineSpecs[] = {
    "engine=simple pop=20 elites=4 seed=11",
    "engine=master-slave pop=20 elites=4 seed=11",
    "engine=cellular width=5 height=4 seed=11",
    "engine=island islands=3 pop=10 interval=2 seed=11",
    "engine=islands-of-cellular islands=2 width=4 height=3 interval=2 seed=11",
    "engine=quantum islands=2 pop=8 seed=11",
    "engine=memetic pop=14 interval=2 refine=2 budget=40 seed=11",
    "engine=cluster ranks=2 pop=10 interval=2 seed=11",
};

class CacheEquivalence : public ::testing::TestWithParam<const char*> {};

TEST_P(CacheEquivalence, BitIdenticalTracesAcrossBackendsAndCacheModes) {
  const std::string base = GetParam();
  const StopCondition stop = StopCondition::generations(6);
  const ProblemPtr problem = flow_shop();
  // The serial run's counters. Both backends look up and insert on the
  // evaluating thread in genome order, so the pool must record exactly
  // the same hits, misses and inserts.
  std::optional<EvalCacheStats> serial;
  for (const char* eval : {" eval=serial", " eval=pool"}) {
    SCOPED_TRACE(base + eval);
    const RunResult off =
        Solver::build(SolverSpec::parse(base + eval), problem).run(stop);
    const RunResult on =
        Solver::build(SolverSpec::parse(base + eval + " eval_cache=lru:4096"),
                      problem)
            .run(stop);
    EXPECT_EQ(off.history, on.history);
    EXPECT_EQ(off.best.seq, on.best.seq);
    EXPECT_EQ(off.best_objective, on.best_objective);
    EXPECT_EQ(off.evaluations, on.evaluations)
        << "cache hits must count like decodes";
    ASSERT_TRUE(on.cache.has_value());
    EXPECT_EQ(on.cache->hits + on.cache->misses, on.evaluations);
    if (!serial) serial = *on.cache;
    EXPECT_EQ(on.cache->hits, serial->hits);
    EXPECT_EQ(on.cache->misses, serial->misses);
    EXPECT_EQ(on.cache->inserts, serial->inserts);
  }
}

INSTANTIATE_TEST_SUITE_P(AllEngines, CacheEquivalence,
                         ::testing::ValuesIn(kEngineSpecs));

// --- engine lifecycle: a rerun replays against one cache ---------------------

// Every registry engine, small enough that lru:4096 never evicts. The
// island engines step their islands on the pool and the cluster runs its
// ranks as threads, so the sanitizer legs see both share the kept cache.
std::string lifecycle_spec(const std::string& engine) {
  const std::map<std::string, std::string> knobs = {
      {"simple", ""},
      {"master-slave", ""},
      {"cellular", " width=4 height=3"},
      {"island", " islands=3 interval=2"},
      {"islands-of-cellular", " islands=2 width=3 height=3 interval=2"},
      {"quantum", " islands=2"},
      {"memetic", " interval=2 refine=2 budget=30"},
      {"cluster", " ranks=3 interval=2 broadcast=4"},
  };
  return "problem=flowshop instance=ta001 engine=" + engine +
         " pop=12 seed=7 eval=serial eval_cache=lru:4096" + knobs.at(engine);
}

class EngineLifecycle : public ::testing::TestWithParam<const char*> {};

TEST_P(EngineLifecycle, RerunReplaysAgainstOneCache) {
  // Construction builds the evaluator and the cache; init() re-seeds and
  // rebuilds only the population. So a second run() of one engine
  // replays the first exactly, against the same cache, and decodes
  // nothing: every genome it meets was memoized by the first run.
  Solver solver = Solver::build(RunSpec::parse(lifecycle_spec(GetParam())));
  const StopCondition stop = StopCondition::generations(6);
  const EvalCachePtr cache = solver.engine().eval_cache_shared();
  ASSERT_NE(cache, nullptr);
  const RunResult first = solver.run(stop);
  EXPECT_EQ(solver.engine().eval_cache_shared(), cache);
  const RunResult second = solver.run(stop);
  EXPECT_EQ(solver.engine().eval_cache_shared(), cache);

  EXPECT_EQ(first.history, second.history);
  EXPECT_EQ(first.best.seq, second.best.seq);
  EXPECT_EQ(first.best_objective, second.best_objective);
  EXPECT_EQ(first.evaluations, second.evaluations);
  ASSERT_TRUE(first.cache.has_value());
  ASSERT_TRUE(second.cache.has_value());
  EXPECT_EQ(first.cache->evictions, 0) << "the spec must fit the cache";
  EXPECT_EQ(second.cache->misses, 0);
  EXPECT_EQ(second.cache->hits, second.evaluations);
}

INSTANTIATE_TEST_SUITE_P(AllEngines, EngineLifecycle,
                         ::testing::Values("simple", "master-slave",
                                           "cellular", "island",
                                           "islands-of-cellular", "quantum",
                                           "memetic", "cluster"));

TEST(CacheEquivalence, TinyLruCapacityStillBitIdentical) {
  // A pathologically small LRU (constant thrash) may not save decodes,
  // but it must never change a trace.
  const StopCondition stop = StopCondition::generations(6);
  const ProblemPtr problem = flow_shop();
  const RunResult off = Solver::build(
      SolverSpec::parse("engine=island islands=3 pop=10 interval=2 seed=13"),
      problem).run(stop);
  const RunResult on = Solver::build(
      SolverSpec::parse("engine=island islands=3 pop=10 interval=2 seed=13 "
                        "eval_cache=lru:8"),
      problem).run(stop);
  EXPECT_EQ(off.history, on.history);
  EXPECT_EQ(off.best.seq, on.best.seq);
  ASSERT_TRUE(on.cache.has_value());
  EXPECT_GT(on.cache->evictions, 0) << "capacity 8 should thrash";
}

}  // namespace
}  // namespace psga::ga
