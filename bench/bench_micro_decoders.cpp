// Micro-benchmarks: decoder throughput for every shop model. The fitness
// evaluation is the hot loop of every engine (the survey's motivation for
// the master-slave model), so decode cost per genome is the number that
// sizes all the experiment budgets.
#include <benchmark/benchmark.h>

#include <numeric>
#include <span>
#include <vector>

#include "src/ga/problem_registry.h"
#include "src/ga/problems.h"
#include "src/par/rng.h"
#include "src/sched/batch_decode.h"
#include "src/sched/classics.h"
#include "src/sched/dynamic.h"
#include "src/sched/generators.h"
#include "src/sched/taillard.h"

namespace {

using namespace psga;

// Decoder inputs rotate through a small pool of random genomes, the way
// an evaluation loop sees a population — a single fixed input would let
// the branch predictor and prefetcher memorize the whole decode and
// overstate scalar throughput.
constexpr int kGenomePool = 16;

std::vector<std::vector<int>> shuffled_permutations(int count, int jobs,
                                                    std::uint64_t seed) {
  par::Rng rng(seed);
  std::vector<std::vector<int>> perms(static_cast<std::size_t>(count));
  for (auto& perm : perms) {
    perm.resize(static_cast<std::size_t>(jobs));
    std::iota(perm.begin(), perm.end(), 0);
    for (std::size_t i = perm.size(); i > 1; --i) {
      std::swap(perm[i - 1], perm[rng.below(i)]);
    }
  }
  return perms;
}

void BM_FlowShopMakespan(benchmark::State& state) {
  const auto inst = sched::taillard_flow_shop(
      static_cast<int>(state.range(0)), static_cast<int>(state.range(1)), 42);
  const auto perms = shuffled_permutations(kGenomePool, inst.jobs, 7);
  sched::FlowShopScratch scratch;
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sched::flow_shop_makespan(inst, perms[i], scratch));
    i = (i + 1) % perms.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FlowShopMakespan)->Args({20, 5})->Args({50, 10})->Args({100, 20});

void BM_FlowShopMakespanBatch(benchmark::State& state) {
  // The SoA batch kernel advancing B permutations in lockstep; items/s is
  // per permutation, directly comparable to BM_FlowShopMakespan.
  const auto inst = sched::taillard_flow_shop(
      static_cast<int>(state.range(0)), static_cast<int>(state.range(1)), 42);
  const auto batch = static_cast<int>(state.range(2));
  const auto perms = shuffled_permutations(batch, inst.jobs, 7);
  std::vector<std::span<const int>> lanes(perms.begin(), perms.end());
  std::vector<sched::Time> out(lanes.size());
  const sched::FlowShopPack pack(inst);
  sched::FlowShopBatchScratch scratch;
  for (auto _ : state) {
    sched::flow_shop_makespan_batch(inst, pack, lanes, out, scratch);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_FlowShopMakespanBatch)
    ->Args({20, 5, 16})
    ->Args({50, 10, 16})
    ->Args({100, 20, 16});

std::vector<std::vector<int>> random_op_sequences(
    const sched::JobShopInstance& inst, int count, std::uint64_t seed) {
  par::Rng rng(seed);
  std::vector<std::vector<int>> seqs(static_cast<std::size_t>(count));
  for (auto& s : seqs) s = sched::random_operation_sequence(inst, rng);
  return seqs;
}

void BM_JobShopSemiActive(benchmark::State& state) {
  const auto& inst = sched::ft10().instance;
  const auto seqs = random_op_sequences(inst, kGenomePool, 1);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sched::decode_operation_based(inst, seqs[i]));
    i = (i + 1) % seqs.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_JobShopSemiActive);

std::vector<ga::Genome> random_op_genomes(const sched::JobShopInstance& inst,
                                          int count, std::uint64_t seed) {
  std::vector<ga::Genome> genomes;
  for (auto& seq : random_op_sequences(inst, count, seed)) {
    genomes.push_back(ga::Genome{std::move(seq), {}, {}});
  }
  return genomes;
}

/// JobShopProblem::objective(genome, workspace) on one workspace, the
/// per-genome cost inside the Evaluator hot loop.
void job_shop_problem_per_genome(benchmark::State& state,
                                 ga::JobShopProblem::Decoder decoder) {
  const auto& inst = sched::ft10().instance;
  const ga::JobShopProblem problem(inst, decoder);
  const auto genomes = random_op_genomes(inst, kGenomePool, 1);
  const auto workspace = problem.make_workspace();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(problem.objective(genomes[i], *workspace));
    i = (i + 1) % genomes.size();
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_JobShopSemiActiveScratch(benchmark::State& state) {
  job_shop_problem_per_genome(state,
                              ga::JobShopProblem::Decoder::kOperationBased);
}
BENCHMARK(BM_JobShopSemiActiveScratch);

void BM_JobShopGifflerThompson(benchmark::State& state) {
  const auto& inst = sched::ft10().instance;
  const auto seqs = random_op_sequences(inst, kGenomePool, 1);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sched::giffler_thompson_sequence(inst, seqs[i]));
    i = (i + 1) % seqs.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_JobShopGifflerThompson);

void BM_JobShopGifflerThompsonScratch(benchmark::State& state) {
  job_shop_problem_per_genome(state,
                              ga::JobShopProblem::Decoder::kGifflerThompson);
}
BENCHMARK(BM_JobShopGifflerThompsonScratch);

/// JobShopProblem::objective_batch over one chunk of state.range(0)
/// genomes on one workspace, viewed once outside the timed loop; items/s
/// is per genome, comparable to the per-genome rows.
void job_shop_problem_batch(benchmark::State& state,
                            const sched::JobShopInstance& inst,
                            ga::JobShopProblem::Decoder decoder) {
  const ga::JobShopProblem problem(inst, decoder);
  const auto batch = static_cast<int>(state.range(0));
  const auto genomes = random_op_genomes(inst, batch, 1);
  const std::vector<const ga::Genome*> views = ga::views_of(genomes);
  std::vector<double> out(genomes.size());
  const auto workspace = problem.make_workspace();
  for (auto _ : state) {
    problem.objective_batch(views, out, *workspace);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * batch);
}

void BM_JobShopSemiActiveBatch(benchmark::State& state) {
  job_shop_problem_batch(state, sched::ft10().instance,
                         ga::JobShopProblem::Decoder::kOperationBased);
}
BENCHMARK(BM_JobShopSemiActiveBatch)->Arg(16);

void BM_JobShopGifflerThompsonBatch(benchmark::State& state,
                                    const sched::JobShopInstance& inst) {
  job_shop_problem_batch(state, inst,
                         ga::JobShopProblem::Decoder::kGifflerThompson);
}
// ft10 keeps its plain row name; the 50 x 10 shop adds a J > M shape under
// the same gate tag. On the register path ft10 runs four genomes in
// lockstep: Arg(1) is a lone genome and Arg(7) a group of four plus a
// tail of three, where padding the tail would show as a slowdown. The
// 50 x 10 shop has too many jobs for the register frontier and prices
// the scalar core.
BENCHMARK_CAPTURE(BM_JobShopGifflerThompsonBatch, ft10, sched::ft10().instance)
    ->Name("BM_JobShopGifflerThompsonBatch")
    ->Arg(1)
    ->Arg(7)
    ->Arg(16);
BENCHMARK_CAPTURE(BM_JobShopGifflerThompsonBatch, random_50x10,
                  sched::random_job_shop(50, 10, 1))
    ->Arg(16);

void BM_DynamicSuffixDecode(benchmark::State& state,
                            const sched::JobShopInstance& inst,
                            int window_count, int split_divisor) {
  // One session event's evaluations: a plan split at horizon /
  // split_divisor under breakdown windows, 16 suffix genomes per
  // objective_batch call on one workspace, each replayed from the prefix
  // frontier. An early split keeps most windows live. items/s is per
  // genome.
  par::Rng rng(3);
  const auto plan = sched::random_operation_sequence(inst, rng);
  const sched::Time horizon =
      sched::decode_operation_based(inst, plan).makespan();
  const auto windows = sched::random_downtimes(
      inst.machines, window_count, horizon, horizon / 20 + 1,
      horizon / 8 + 1, 5);
  const auto context =
      sched::split_at(inst, plan, windows, horizon / split_divisor);
  const ga::DynamicSuffixProblem problem(&inst, context.frozen_prefix,
                                         context.remaining, windows);
  std::vector<ga::Genome> genomes;
  for (int i = 0; i < kGenomePool; ++i) {
    genomes.push_back(problem.random_genome(rng));
  }
  const std::vector<const ga::Genome*> views = ga::views_of(genomes);
  std::vector<double> out(genomes.size());
  const auto workspace = problem.make_workspace();
  for (auto _ : state) {
    problem.objective_batch(views, out, *workspace);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(genomes.size()));
}
BENCHMARK_CAPTURE(BM_DynamicSuffixDecode, ft10, sched::ft10().instance, 3, 2);
BENCHMARK_CAPTURE(BM_DynamicSuffixDecode, ft10_no_windows,
                  sched::ft10().instance, 0, 2);
BENCHMARK_CAPTURE(BM_DynamicSuffixDecode, ft10_12_windows_early,
                  sched::ft10().instance, 12, 10);
BENCHMARK_CAPTURE(BM_DynamicSuffixDecode, random_50x10,
                  sched::random_job_shop(50, 10, 1), 8, 2);

void BM_OpenShopDecode(benchmark::State& state) {
  const auto inst = sched::random_open_shop(15, 8, 7);
  par::Rng rng(2);
  const auto seq = sched::random_job_repetition_sequence(inst, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sched::decode_open_shop(inst, seq, sched::OpenShopDecoder::kLptTask));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_OpenShopDecode);

void BM_OpenShopDecodeScratch(benchmark::State& state) {
  const auto inst = sched::random_open_shop(15, 8, 7);
  par::Rng rng(2);
  const auto seq = sched::random_job_repetition_sequence(inst, rng);
  sched::OpenShopScratch scratch;
  for (auto _ : state) {
    benchmark::DoNotOptimize(&sched::decode_open_shop(
        inst, seq, sched::OpenShopDecoder::kLptTask, scratch));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_OpenShopDecodeScratch);

void BM_HybridFlowShopDecode(benchmark::State& state) {
  sched::HfsParams params;
  params.jobs = 20;
  params.machines_per_stage = {3, 2, 3};
  params.setup_hi = state.range(0) != 0 ? 10 : 0;
  const auto inst = sched::random_hybrid_flow_shop(params, 9);
  std::vector<int> perm(20);
  std::iota(perm.begin(), perm.end(), 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sched::decode_hybrid_flow_shop(inst, perm));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HybridFlowShopDecode)->Arg(0)->Arg(1);

void BM_HybridFlowShopDecodeScratch(benchmark::State& state) {
  sched::HfsParams params;
  params.jobs = 20;
  params.machines_per_stage = {3, 2, 3};
  params.setup_hi = state.range(0) != 0 ? 10 : 0;
  const auto inst = sched::random_hybrid_flow_shop(params, 9);
  std::vector<int> perm(20);
  std::iota(perm.begin(), perm.end(), 0);
  sched::HybridFlowShopScratch scratch;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        &sched::decode_hybrid_flow_shop(inst, perm, scratch));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HybridFlowShopDecodeScratch)->Arg(0)->Arg(1);

void BM_FlexibleJobShopDecode(benchmark::State& state) {
  sched::FjsParams params;
  params.jobs = 12;
  params.machines = 6;
  params.ops_per_job = 5;
  params.setup_hi = 10;
  const auto inst = sched::random_flexible_job_shop(params, 11);
  par::Rng rng(3);
  const auto assign = sched::random_fjs_assignment(inst, rng);
  const auto seq = sched::random_fjs_sequence(inst, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sched::decode_flexible_job_shop(inst, assign, seq));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FlexibleJobShopDecode);

void BM_FlexibleJobShopDecodeScratch(benchmark::State& state) {
  sched::FjsParams params;
  params.jobs = 12;
  params.machines = 6;
  params.ops_per_job = 5;
  params.setup_hi = 10;
  const auto inst = sched::random_flexible_job_shop(params, 11);
  par::Rng rng(3);
  const auto assign = sched::random_fjs_assignment(inst, rng);
  const auto seq = sched::random_fjs_sequence(inst, rng);
  sched::FlexibleJobShopScratch scratch;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        &sched::decode_flexible_job_shop(inst, assign, seq, scratch));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FlexibleJobShopDecodeScratch);

void BM_FuzzyFlowShopAgreement(benchmark::State& state) {
  const auto crisp = sched::taillard_flow_shop(20, 5, 42);
  const auto fuzzy = sched::fuzzify(crisp.proc, 0.2, 1.6, 0.8);
  std::vector<int> perm(20);
  std::iota(perm.begin(), perm.end(), 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sched::mean_agreement(fuzzy, perm));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FuzzyFlowShopAgreement);

void BM_LotStreamingDecode(benchmark::State& state) {
  sched::LotStreamParams params;
  params.jobs = 8;
  params.sublots = 3;
  const auto inst = sched::random_lot_streaming(params, 13);
  par::Rng rng(5);
  std::vector<double> keys(static_cast<std::size_t>(inst.total_sublots()));
  for (auto& k : keys) k = rng.uniform(0.1, 1.0);
  std::vector<int> perm(static_cast<std::size_t>(inst.total_sublots()));
  std::iota(perm.begin(), perm.end(), 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sched::lot_streaming_makespan(inst, keys, perm));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LotStreamingDecode);

void BM_LotStreamingDecodeScratch(benchmark::State& state) {
  // The scratch keeps the expanded hybrid-flow-shop instance alive and
  // only rewrites durations per genome — the largest reuse win of all
  // decoders.
  sched::LotStreamParams params;
  params.jobs = 8;
  params.sublots = 3;
  const auto inst = sched::random_lot_streaming(params, 13);
  par::Rng rng(5);
  std::vector<double> keys(static_cast<std::size_t>(inst.total_sublots()));
  for (auto& k : keys) k = rng.uniform(0.1, 1.0);
  std::vector<int> perm(static_cast<std::size_t>(inst.total_sublots()));
  std::iota(perm.begin(), perm.end(), 0);
  sched::LotStreamingScratch scratch;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sched::lot_streaming_makespan(inst, keys, perm, scratch));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LotStreamingDecodeScratch);

}  // namespace

BENCHMARK_MAIN();
