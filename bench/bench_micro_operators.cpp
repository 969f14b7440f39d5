// Micro-benchmarks: GA operator throughput (selection, crossover,
// mutation) on realistic chromosome sizes.
#include <benchmark/benchmark.h>

#include <numeric>

#include "src/ga/registry.h"
#include "src/ga/solver.h"
#include "src/par/rng.h"

namespace {

using namespace psga;
using namespace psga::ga;

GenomeTraits perm_traits(int n) {
  GenomeTraits t;
  t.seq_kind = SeqKind::kPermutation;
  t.seq_length = n;
  return t;
}

/// `jobs` jobs of `ops` operations each: Args({10, 10}) is ft10's shape.
GenomeTraits job_traits(int jobs, int ops) {
  GenomeTraits t;
  t.seq_kind = SeqKind::kJobRepetition;
  t.repeats.assign(static_cast<std::size_t>(jobs), ops);
  t.seq_length = jobs * ops;
  return t;
}

Genome random_perm(const GenomeTraits& traits, par::Rng& rng) {
  Genome g;
  g.seq.resize(static_cast<std::size_t>(traits.seq_length));
  std::iota(g.seq.begin(), g.seq.end(), 0);
  rng.shuffle(g.seq);
  return g;
}

Genome random_job_sequence(const GenomeTraits& traits, par::Rng& rng) {
  Genome g;
  for (std::size_t j = 0; j < traits.repeats.size(); ++j) {
    g.seq.insert(g.seq.end(), static_cast<std::size_t>(traits.repeats[j]),
                 static_cast<int>(j));
  }
  rng.shuffle(g.seq);
  return g;
}

/// One item is one crossover of a pair; the children are reused, as the
/// engines reuse their next-generation slots.
void run_crossover(benchmark::State& state, const char* name,
                   const GenomeTraits& traits, const Genome& a,
                   const Genome& b, par::Rng& rng) {
  const CrossoverPtr cx = make_crossover(name);
  Genome c1;
  Genome c2;
  for (auto _ : state) {
    cx->cross(a, b, traits, c1, c2, rng);
    benchmark::DoNotOptimize(c1);
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_Crossover(benchmark::State& state, const char* name) {
  const GenomeTraits traits = perm_traits(static_cast<int>(state.range(0)));
  par::Rng rng(1);
  const Genome a = random_perm(traits, rng);
  const Genome b = random_perm(traits, rng);
  run_crossover(state, name, traits, a, b, rng);
}
// n = 50 is serve-mixed's flow-shop shape (ox); its take sets range over
// more values than one 32-bit word holds.
BENCHMARK_CAPTURE(BM_Crossover, ox, "ox")->Arg(20)->Arg(50)->Arg(100);
BENCHMARK_CAPTURE(BM_Crossover, pmx, "pmx")->Arg(20)->Arg(100);
BENCHMARK_CAPTURE(BM_Crossover, cycle, "cycle")->Arg(20)->Arg(100);
BENCHMARK_CAPTURE(BM_Crossover, jox, "jox")->Arg(20)->Arg(50)->Arg(100);
BENCHMARK_CAPTURE(BM_Crossover, ppx, "ppx")->Arg(20)->Arg(100);
BENCHMARK_CAPTURE(BM_Crossover, two_point, "two-point")->Arg(20)->Arg(100);
BENCHMARK_CAPTURE(BM_Crossover, position_based, "position-based")->Arg(100);

/// Job-repetition sequences, the encoding every job-shop solve breeds.
void BM_CrossoverJobShop(benchmark::State& state, const char* name) {
  const GenomeTraits traits = job_traits(static_cast<int>(state.range(0)),
                                         static_cast<int>(state.range(1)));
  par::Rng rng(1);
  const Genome a = random_job_sequence(traits, rng);
  const Genome b = random_job_sequence(traits, rng);
  run_crossover(state, name, traits, a, b, rng);
}
BENCHMARK_CAPTURE(BM_CrossoverJobShop, jox, "jox")->Args({10, 10});
BENCHMARK_CAPTURE(BM_CrossoverJobShop, ppx, "ppx")->Args({10, 10});
BENCHMARK_CAPTURE(BM_CrossoverJobShop, two_point, "two-point")->Args({10, 10});
BENCHMARK_CAPTURE(BM_CrossoverJobShop, thx, "thx")->Args({10, 10});

void BM_Mutation(benchmark::State& state, const char* name) {
  const MutationPtr mut = make_mutation(name);
  const GenomeTraits traits = perm_traits(static_cast<int>(state.range(0)));
  par::Rng rng(2);
  Genome g = random_perm(traits, rng);
  for (auto _ : state) {
    mut->mutate(g, traits, rng);
    benchmark::DoNotOptimize(g);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_CAPTURE(BM_Mutation, swap, "swap")->Arg(100);
BENCHMARK_CAPTURE(BM_Mutation, shift, "shift")->Arg(100);
BENCHMARK_CAPTURE(BM_Mutation, inversion, "inversion")->Arg(100);
BENCHMARK_CAPTURE(BM_Mutation, scramble, "scramble")->Arg(100);

void BM_Selection(benchmark::State& state, const char* name) {
  const SelectionPtr sel = make_selection(name);
  par::Rng rng(3);
  std::vector<double> fitness(static_cast<std::size_t>(state.range(0)));
  for (auto& f : fitness) f = rng.uniform(0.1, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sel->pick(fitness, rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_CAPTURE(BM_Selection, roulette, "roulette")->Arg(100)->Arg(1000);
BENCHMARK_CAPTURE(BM_Selection, tournament2, "tournament2")->Arg(100)->Arg(1000);
BENCHMARK_CAPTURE(BM_Selection, rank, "rank")->Arg(100);

/// One item is one pick_many of a whole generation's parents.
void BM_SelectionPickMany(benchmark::State& state, const char* name) {
  const SelectionPtr sel = make_selection(name);
  const int n = static_cast<int>(state.range(0));
  par::Rng rng(5);
  std::vector<double> fitness(static_cast<std::size_t>(n));
  for (auto& f : fitness) f = rng.uniform(0.1, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sel->pick_many(fitness, n, rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_CAPTURE(BM_SelectionPickMany, rank, "rank")->Arg(100);
BENCHMARK_CAPTURE(BM_SelectionPickMany, roulette, "roulette")->Arg(100);
BENCHMARK_CAPTURE(BM_SelectionPickMany, elitist_roulette, "elitist-roulette")
    ->Arg(100);
BENCHMARK_CAPTURE(BM_SelectionPickMany, tournament2, "tournament2")->Arg(100);

void BM_SusPickMany(benchmark::State& state) {
  StochasticUniversalSelection sel;
  par::Rng rng(4);
  std::vector<double> fitness(256);
  for (auto& f : fitness) f = rng.uniform(0.1, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sel.pick_many(fitness, 256, rng));
  }
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_SusPickMany);

/// One item is one SimpleGa generation (selection, crossover, mutation
/// and evaluation) of an end-to-end workload's solve spec. The engine is
/// built and initialised outside the timed loop, and each row runs a
/// fixed number of generations, so every process times the same
/// deterministic trajectory from the same first population.
void BM_EngineStep(benchmark::State& state, const char* spec) {
  Solver solver = Solver::build(RunSpec::parse(spec));
  Engine& engine = solver.engine();
  engine.init();
  for (auto _ : state) engine.step();
  state.SetItemsProcessed(state.iterations());
}
// ft10-gt's and ft10-breed's solves, and one island of serve-mixed's
// flow-shop job spec (each island is a SimpleGa of pop=32 on the cache).
BENCHMARK_CAPTURE(BM_EngineStep, ft10_gt_pop256,
                  "problem=jobshop instance=ft10 decoder=active "
                  "engine=simple pop=256 eval=serial seed=7")
    ->Iterations(200)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_EngineStep, ft10_semi_active_pop100,
                  "problem=jobshop instance=ft10 decoder=semi-active "
                  "engine=simple pop=100 eval=serial seed=7")
    ->Iterations(2000)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_EngineStep, flowshop_50x10_island,
                  "problem=flowshop instance=gen:jobs=50,machines=10 "
                  "engine=simple pop=32 eval=serial eval_cache=lru:4096 "
                  "seed=7")
    ->Iterations(6000)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
