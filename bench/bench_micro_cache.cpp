// Micro-benchmarks: the evaluation cache (ci.sh's micro-bench gate runs
// it against HEAD and gates the BM_Cache rows):
//   - hit_rate / decode_reduction counters on a heavy-elitism island run
//     (the acceptance bar: >= 30% fewer decode calls with the cache on);
//   - cached vs uncached engine throughput on a decode-heavy job shop;
//   - the cache layer's own cost per genome: a hit (BM_CacheHitBatch) and
//     a miss that decodes and evicts (BM_CacheMissBatch, beside its
//     uncached twin), on ft10 and flowshop 50x10.
#include <benchmark/benchmark.h>

#include <memory>
#include <span>
#include <vector>

#include "src/ga/problem_registry.h"
#include "src/ga/solver.h"
#include "src/sched/classics.h"
#include "src/sched/taillard.h"

namespace {

using namespace psga::ga;

ProblemPtr job_shop() {
  // ft10 through the Giffler-Thompson decoder: a decode heavy enough
  // that memoization pays, light enough for a bench loop.
  return make_problem(
      psga::sched::ft10().instance, JobShopProblem::Decoder::kGifflerThompson);
}

// Heavy elitism + migration cloning: the duplication profile the cache
// exists for. One island run per iteration; the counters report the
// measured duplicate traffic of the final run. Islands step on the
// thread pool, so time is wall clock, not the calling thread's CPU.
void BM_IslandHeavyElitism(benchmark::State& state) {
  const bool cached = state.range(0) != 0;
  const std::string spec =
      std::string("engine=island islands=4 pop=16 elites=6 interval=2 "
                  "seed=7") +
      (cached ? " eval_cache=lru:65536" : "");
  const ProblemPtr problem = job_shop();
  RunResult last;
  for (auto _ : state) {
    Solver solver = Solver::build(SolverSpec::parse(spec), problem);
    last = solver.run(StopCondition::generations(20));
    benchmark::DoNotOptimize(last.best_objective);
  }
  state.counters["evaluations"] = static_cast<double>(last.evaluations);
  // RunResult::cache is engaged even without a cache (all zeros), so key
  // off the spec: the uncached row would otherwise report 0/0 = NaN.
  if (cached) {
    const double hits = static_cast<double>(last.cache->hits);
    const double misses = static_cast<double>(last.cache->misses);
    state.counters["hit_rate"] = hits / (hits + misses);
    // Decodes drop from `evaluations` (uncached) to `misses`.
    state.counters["decode_reduction"] =
        1.0 - misses / static_cast<double>(last.evaluations);
  } else {
    state.counters["hit_rate"] = 0.0;
    state.counters["decode_reduction"] = 0.0;
  }
}
BENCHMARK(BM_IslandHeavyElitism)
    ->Arg(0)
    ->Arg(1)
    ->ArgNames({"cache"})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Same duplication profile on the single-population engine: wall-clock
// effect of memoization alone.
void BM_SimpleElitistRun(benchmark::State& state) {
  const bool cached = state.range(0) != 0;
  const std::string spec =
      std::string("engine=simple pop=48 elites=16 seed=11") +
      (cached ? " eval_cache=lru:65536" : "");
  const ProblemPtr problem = job_shop();
  for (auto _ : state) {
    Solver solver = Solver::build(SolverSpec::parse(spec), problem);
    const RunResult r = solver.run(StopCondition::generations(15));
    benchmark::DoNotOptimize(r.best_objective);
  }
}
BENCHMARK(BM_SimpleElitistRun)
    ->Arg(0)
    ->Arg(1)
    ->ArgNames({"cache"})
    ->Unit(benchmark::kMillisecond);

// The two genome shapes the cache rows price: ft10 (100 genes, the
// session and ft10 workloads' shape) and flowshop 50x10 (50 genes,
// serve-mixed's job shape). The semi-active decoder is the cheap one a
// hit must beat.
enum class Shape { kFt10, kFlowShop50x10 };

ProblemPtr shape_problem(Shape shape) {
  if (shape == Shape::kFt10) return make_problem(psga::sched::ft10().instance);
  return make_problem(psga::sched::taillard_flow_shop(50, 10, 42));
}

std::vector<Genome> random_genomes(const Problem& problem, std::size_t count) {
  psga::par::Rng rng(3);
  std::vector<Genome> genomes;
  genomes.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    genomes.push_back(problem.random_genome(rng));
  }
  return genomes;
}

constexpr std::size_t kBatch = 256;

// Raw cache-layer cost of a hit: key, lookup and recency touch on a full
// batch, per genome. A hit must cost less than the decode it saves. The
// capacity is far above the batch, so every shard holds its share.
void BM_CacheHitBatch(benchmark::State& state, Shape shape) {
  const ProblemPtr problem = shape_problem(shape);
  const std::vector<Genome> population = random_genomes(*problem, kBatch);
  std::vector<double> objectives(kBatch, 0.0);
  Evaluator evaluator(problem, EvalBackend::kSerial, nullptr,
                      std::make_shared<EvalCache>(256 * kBatch));
  evaluator.evaluate(population, objectives);  // warm: everything misses once
  for (auto _ : state) {
    evaluator.evaluate(population, objectives);  // all hits
    benchmark::DoNotOptimize(objectives);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long long>(kBatch));
}
BENCHMARK_CAPTURE(BM_CacheHitBatch, ft10, Shape::kFt10);
BENCHMARK_CAPTURE(BM_CacheHitBatch, flowshop_50x10, Shape::kFlowShop50x10);

// The cost of a miss: fresh genomes into a full lru:4096, so every lookup
// misses, decodes, inserts and evicts. The pool cycles through twice the
// capacity, so a genome is always evicted before it comes round again.
// The *_uncached twin decodes the same batches with no cache attached:
// the difference between the two rows is the miss overhead.
void BM_CacheMissBatch(benchmark::State& state, Shape shape, bool cached) {
  const ProblemPtr problem = shape_problem(shape);
  const std::size_t capacity = 4096;
  const std::vector<Genome> pool = random_genomes(*problem, 2 * capacity);
  std::vector<double> objectives(kBatch, 0.0);
  const EvalCachePtr cache = EvalCache::make(cached ? capacity : 0);
  Evaluator evaluator(problem, EvalBackend::kSerial, nullptr, cache);
  const std::span<const Genome> genomes(pool);
  std::size_t begin = 0;
  const auto next_batch = [&] {
    evaluator.evaluate(genomes.subspan(begin, kBatch), objectives);
    begin = (begin + kBatch) % pool.size();
  };
  for (std::size_t i = 0; i < pool.size(); i += kBatch) next_batch();  // fill
  const EvalCacheStats before = cache ? cache->stats() : EvalCacheStats{};
  for (auto _ : state) {
    next_batch();
    benchmark::DoNotOptimize(objectives);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long long>(kBatch));
  if (cache) {
    EvalCacheStats during = cache->stats();
    during -= before;
    state.counters["hit_rate"] = static_cast<double>(during.hits) /
                                 static_cast<double>(during.hits + during.misses);
  }
}
BENCHMARK_CAPTURE(BM_CacheMissBatch, ft10, Shape::kFt10, true);
BENCHMARK_CAPTURE(BM_CacheMissBatch, ft10_uncached, Shape::kFt10, false);
BENCHMARK_CAPTURE(BM_CacheMissBatch, flowshop_50x10, Shape::kFlowShop50x10,
                  true);
BENCHMARK_CAPTURE(BM_CacheMissBatch, flowshop_50x10_uncached,
                  Shape::kFlowShop50x10, false);

}  // namespace

BENCHMARK_MAIN();
