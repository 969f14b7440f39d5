// Micro-benchmarks: the evaluation cache. The headline numbers land in
// BENCH_micro.json via ci.sh:
//   - hit_rate / decode_reduction counters on a heavy-elitism island run
//     (the acceptance bar: >= 30% fewer decode calls with the cache on);
//   - cached vs uncached engine throughput on a decode-heavy job shop.
#include <benchmark/benchmark.h>

#include <memory>

#include "src/ga/problem_registry.h"
#include "src/ga/solver.h"
#include "src/sched/classics.h"

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

// Raw cache-layer overhead: lookup+hit on a full batch (the per-genome
// cost a hit must beat is one decode).
void BM_CacheHitBatch(benchmark::State& state) {
  const ProblemPtr problem = job_shop();
  psga::par::Rng rng(3);
  std::vector<Genome> population;
  const std::size_t pop = 256;
  for (std::size_t i = 0; i < pop; ++i) {
    population.push_back(problem->random_genome(rng));
  }
  std::vector<double> objectives(pop, 0.0);
  Evaluator evaluator(problem, EvalBackend::kSerial);
  EvalCacheConfig cache_cfg;
  cache_cfg.mode = EvalCacheMode::kUnbounded;
  evaluator.set_cache(std::make_shared<EvalCache>(cache_cfg));
  evaluator.evaluate(population, objectives);  // warm: everything misses once
  for (auto _ : state) {
    evaluator.evaluate(population, objectives);  // all hits
    benchmark::DoNotOptimize(objectives);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long long>(pop));
}
BENCHMARK(BM_CacheHitBatch);

}  // namespace

BENCHMARK_MAIN();
