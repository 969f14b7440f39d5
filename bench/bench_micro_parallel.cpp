// Micro-benchmarks: parallel substrate — thread-pool dispatch overhead,
// parallel_for scaling on a fitness-like kernel, Evaluator backend
// throughput on a real decoder, cluster message latency. Every bench
// that runs on more than one thread reports wall-clock time
// (UseRealTime): the calling thread's CPU time leaves out the helper
// lanes' work, so items/s would grow with the lane count alone.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cmath>

#include "src/ga/evaluator.h"
#include "src/ga/problem_registry.h"
#include "src/par/cluster.h"
#include "src/par/rng.h"
#include "src/par/thread_pool.h"
#include "src/sched/classics.h"

namespace {

using namespace psga::par;

void BM_ParallelForDispatch(benchmark::State& state) {
  ThreadPool pool(static_cast<int>(state.range(0)));
  std::atomic<int> sink{0};
  for (auto _ : state) {
    pool.parallel_for(1, [&](std::size_t) { ++sink; });
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ParallelForDispatch)->Arg(1)->Arg(4)->Arg(16)->UseRealTime();

double fake_fitness(std::uint64_t seed, int work) {
  Rng rng(seed);
  double acc = 0.0;
  for (int i = 0; i < work; ++i) acc += std::sqrt(rng.uniform() + 1.0);
  return acc;
}

void BM_ParallelForFitnessKernel(benchmark::State& state) {
  ThreadPool pool(static_cast<int>(state.range(0)));
  const std::size_t population = 1024;
  std::vector<double> out(population);
  for (auto _ : state) {
    pool.parallel_for(population, [&](std::size_t i) {
      out[i] = fake_fitness(i, 300);
    });
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * population);
}
BENCHMARK(BM_ParallelForFitnessKernel)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16)
    ->Arg(24)
    ->UseRealTime();

void BM_EvaluatorJobShopBatch(benchmark::State& state) {
  // Whole-population evaluation of ft10 through the unified Evaluator —
  // the actual hot loop of every engine. Arg = thread-pool width
  // (0 = serial backend).
  using namespace psga::ga;
  const auto problem = make_problem(
      psga::sched::ft10().instance, JobShopProblem::Decoder::kOperationBased);
  Rng rng(7);
  std::vector<Genome> population;
  const std::size_t pop = 256;
  population.reserve(pop);
  for (std::size_t i = 0; i < pop; ++i) {
    population.push_back(problem->random_genome(rng));
  }
  std::vector<double> objectives(pop, 0.0);
  const int threads = static_cast<int>(state.range(0));
  ThreadPool pool(threads > 0 ? threads : 1);
  Evaluator evaluator(problem,
                      threads > 0 ? EvalBackend::kThreadPool
                                  : EvalBackend::kSerial,
                      &pool);
  for (auto _ : state) {
    evaluator.evaluate(population, objectives);
    benchmark::DoNotOptimize(objectives);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long long>(pop));
}
BENCHMARK(BM_EvaluatorJobShopBatch)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime();

void BM_RngThroughput(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RngThroughput);

void BM_RngSplit(benchmark::State& state) {
  Rng rng(1);
  std::uint64_t id = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.split(id++));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RngSplit);

void BM_ClusterPingPong(benchmark::State& state) {
  for (auto _ : state) {
    Cluster cluster(2);
    cluster.run([](Rank& rank) {
      const int rounds = 50;
      for (int i = 0; i < rounds; ++i) {
        if (rank.id() == 0) {
          Message msg;
          msg.tag = 1;
          msg.ints = {i};
          rank.send(1, msg);
          (void)rank.recv(2);
        } else {
          (void)rank.recv(1);
          Message msg;
          msg.tag = 2;
          rank.send(0, msg);
        }
      }
    });
  }
  state.SetItemsProcessed(state.iterations() * 100);
}
BENCHMARK(BM_ClusterPingPong)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
