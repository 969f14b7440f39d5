// The unified Evaluator is the one place fitness evaluation happens, so
// these tests pin down its two contracts:
//   1. backend equivalence — Serial, ThreadPool (any width) and OpenMP
//      produce bit-identical objective vectors for every shop decoder,
//      and the Workspace fast path equals the allocating slow path;
//   2. engine invariance — a full SimpleGa run through the evaluator is
//      identical for every backend and thread count.
#include "src/ga/evaluator.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/ga/problems.h"
#include "src/ga/simple_ga.h"
#include "src/sched/classics.h"
#include "src/sched/generators.h"
#include "src/sched/taillard.h"

namespace psga::ga {
namespace {

std::vector<std::pair<std::string, ProblemPtr>> all_decoder_problems() {
  std::vector<std::pair<std::string, ProblemPtr>> problems;
  problems.emplace_back("flow_shop",
                        std::make_shared<FlowShopProblem>(
                            sched::make_taillard(sched::taillard_20x5().front()),
                            sched::Criterion::kMakespan));
  {
    sched::FlowShopInstance inst =
        sched::make_taillard(sched::taillard_20x5().front());
    sched::assign_due_dates(
        inst.attrs, [&] {
          std::vector<sched::Time> work(static_cast<std::size_t>(inst.jobs));
          for (int j = 0; j < inst.jobs; ++j) work[static_cast<std::size_t>(j)] = inst.total_processing(j);
          return work;
        }(), 1.3, 5, 77);
    problems.emplace_back(
        "flow_shop_twt",
        std::make_shared<FlowShopProblem>(
            std::move(inst), sched::Criterion::kTotalWeightedTardiness));
  }
  problems.emplace_back("random_key_flow_shop",
                        std::make_shared<RandomKeyFlowShopProblem>(
                            sched::make_taillard(sched::taillard_20x5()[1])));
  problems.emplace_back("job_shop_semi_active",
                        std::make_shared<JobShopProblem>(
                            sched::ft06().instance,
                            JobShopProblem::Decoder::kOperationBased));
  problems.emplace_back("job_shop_giffler_thompson",
                        std::make_shared<JobShopProblem>(
                            sched::ft06().instance,
                            JobShopProblem::Decoder::kGifflerThompson));
  problems.emplace_back("open_shop",
                        std::make_shared<OpenShopProblem>(
                            sched::random_open_shop(8, 5, 7)));
  problems.emplace_back("open_shop_lpt_machine",
                        std::make_shared<OpenShopProblem>(
                            sched::random_open_shop(8, 5, 8),
                            sched::OpenShopDecoder::kLptMachine));
  {
    sched::HfsParams params;
    params.jobs = 10;
    params.machines_per_stage = {3, 2, 3};
    params.setup_hi = 10;
    problems.emplace_back("hybrid_flow_shop",
                          std::make_shared<HybridFlowShopProblem>(
                              sched::random_hybrid_flow_shop(params, 9)));
  }
  {
    sched::HfsParams params;
    params.jobs = 8;
    params.blocking = true;
    problems.emplace_back("hybrid_flow_shop_blocking",
                          std::make_shared<HybridFlowShopProblem>(
                              sched::random_hybrid_flow_shop(params, 10)));
  }
  {
    sched::FjsParams params;
    params.jobs = 8;
    params.machines = 5;
    params.ops_per_job = 4;
    params.setup_hi = 10;
    problems.emplace_back("flexible_job_shop",
                          std::make_shared<FlexibleJobShopProblem>(
                              sched::random_flexible_job_shop(params, 11)));
  }
  {
    sched::LotStreamParams params;
    params.jobs = 5;
    params.sublots = 3;
    problems.emplace_back("lot_streaming",
                          std::make_shared<LotStreamingProblem>(
                              sched::random_lot_streaming(params, 13)));
  }
  return problems;
}

std::vector<Genome> random_population(const Problem& problem, int n,
                                      std::uint64_t seed) {
  par::Rng rng(seed);
  std::vector<Genome> population;
  population.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) population.push_back(problem.random_genome(rng));
  return population;
}

TEST(Evaluator, BackendEquivalenceForEveryDecoder) {
  for (const auto& [name, problem] : all_decoder_problems()) {
    SCOPED_TRACE(name);
    const std::vector<Genome> population = random_population(*problem, 32, 5);
    std::vector<double> expected(population.size());
    // Reference: the allocating single-genome path.
    for (std::size_t i = 0; i < population.size(); ++i) {
      expected[i] = problem->objective(population[i]);
    }

    Evaluator serial(problem, EvalBackend::kSerial);
    std::vector<double> got(population.size(), -1.0);
    serial.evaluate(population, got);
    EXPECT_EQ(expected, got) << "serial";

    for (int threads : {1, 2, 5}) {
      par::ThreadPool pool(threads);
      Evaluator pooled(problem, EvalBackend::kThreadPool, &pool);
      std::vector<double> pooled_got(population.size(), -1.0);
      pooled.evaluate(population, pooled_got);
      EXPECT_EQ(expected, pooled_got) << "threads=" << threads;
    }

    Evaluator omp(problem, EvalBackend::kOpenMp);
    std::vector<double> omp_got(population.size(), -1.0);
    omp.evaluate(population, omp_got);
    EXPECT_EQ(expected, omp_got) << "openmp";
  }
}

TEST(Evaluator, WorkspaceCarriesNoStateBetweenBatches) {
  // Re-evaluating the same batch, and evaluating it in reverse order,
  // must give the same numbers — the Workspace only recycles capacity.
  for (const auto& [name, problem] : all_decoder_problems()) {
    SCOPED_TRACE(name);
    std::vector<Genome> population = random_population(*problem, 16, 23);
    Evaluator evaluator(problem, EvalBackend::kSerial);
    std::vector<double> first(population.size());
    evaluator.evaluate(population, first);
    std::vector<double> second(population.size());
    evaluator.evaluate(population, second);
    EXPECT_EQ(first, second);

    std::vector<Genome> reversed(population.rbegin(), population.rend());
    std::vector<double> rev(population.size());
    evaluator.evaluate(reversed, rev);
    const std::vector<double> rev_expected(first.rbegin(), first.rend());
    EXPECT_EQ(rev_expected, rev);
  }
}

TEST(Evaluator, EvaluateOneMatchesBatch) {
  for (const auto& [name, problem] : all_decoder_problems()) {
    SCOPED_TRACE(name);
    const std::vector<Genome> population = random_population(*problem, 8, 31);
    Evaluator evaluator(problem, EvalBackend::kSerial);
    std::vector<double> batch(population.size());
    evaluator.evaluate(population, batch);
    for (std::size_t i = 0; i < population.size(); ++i) {
      EXPECT_EQ(batch[i], evaluator.evaluate_one(population[i])) << i;
    }
  }
}

TEST(Evaluator, CountsEvaluations) {
  const auto problem = std::make_shared<JobShopProblem>(sched::ft06().instance);
  Evaluator evaluator(problem, EvalBackend::kSerial);
  const std::vector<Genome> population = random_population(*problem, 10, 3);
  std::vector<double> out(population.size());
  evaluator.evaluate(population, out);
  evaluator.evaluate(population, out);
  (void)evaluator.evaluate_one(population.front());
  EXPECT_EQ(evaluator.evaluations(), 21);
}

TEST(Evaluator, EngineRunInvariantAcrossBackendsAndThreadCounts) {
  // Full engine runs through the shared evaluation path must be
  // bit-identical for every backend and worker count.
  for (const auto& [name, problem] : all_decoder_problems()) {
    SCOPED_TRACE(name);
    GaConfig cfg;
    cfg.population = 24;
    cfg.termination.max_generations = 8;
    cfg.seed = 17;
    SimpleGa serial(problem, cfg);
    const GaResult reference = serial.run();
    for (int threads : {1, 2, 4, 8, 16}) {
      par::ThreadPool pool(threads);
      GaConfig parallel_cfg = cfg;
      parallel_cfg.eval_backend = EvalBackend::kThreadPool;
      SimpleGa parallel(problem, parallel_cfg, &pool);
      const GaResult result = parallel.run();
      EXPECT_EQ(reference.history, result.history) << "threads=" << threads;
      EXPECT_EQ(reference.best.seq, result.best.seq) << "threads=" << threads;
      EXPECT_EQ(reference.evaluations, result.evaluations);
    }
    GaConfig omp_cfg = cfg;
    omp_cfg.eval_backend = EvalBackend::kOpenMp;
    SimpleGa omp_engine(problem, omp_cfg);
    const GaResult omp_result = omp_engine.run();
    EXPECT_EQ(reference.history, omp_result.history) << "openmp";
  }
}

TEST(Evaluator, LanesMatchBackend) {
  const auto problem = std::make_shared<FlowShopProblem>(
      sched::make_taillard(sched::taillard_20x5().front()));
  Evaluator serial(problem, EvalBackend::kSerial);
  EXPECT_EQ(serial.lanes(), 1);
  par::ThreadPool pool(3);
  Evaluator pooled(problem, EvalBackend::kThreadPool, &pool);
  EXPECT_EQ(pooled.lanes(), 3);
}

}  // namespace
}  // namespace psga::ga
