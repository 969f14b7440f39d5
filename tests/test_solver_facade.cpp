// The unified Solver facade: spec parsing, the string-keyed engine
// registry, facade-vs-direct trace equality for every engine, observer
// hooks, and the universal StopCondition (wall-clock / evaluation
// budgets for all engines).
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "src/ga/problems.h"
#include "src/ga/registry.h"
#include "src/ga/solver.h"
#include "src/sched/classics.h"
#include "src/sched/taillard.h"

namespace psga::ga {
namespace {

ProblemPtr flow_shop() {
  return std::make_shared<FlowShopProblem>(
      sched::make_taillard(sched::taillard_20x5().front()));
}

ProblemPtr job_shop() {
  return std::make_shared<JobShopProblem>(sched::ft06().instance);
}

// --- facade vs direct construction: identical traces ------------------------

TEST(SolverFacade, SimpleMatchesDirectConstruction) {
  const StopCondition stop = StopCondition::generations(15);
  GaConfig cfg;
  cfg.population = 30;
  cfg.seed = 5;
  SimpleGa direct(flow_shop(), cfg);
  const RunResult expect = direct.run(stop);
  const RunResult got =
      Solver::build(SolverSpec::parse("engine=simple pop=30 seed=5"),
                    flow_shop())
          .run(stop);
  EXPECT_EQ(expect.history, got.history);
  EXPECT_EQ(expect.best.seq, got.best.seq);
  EXPECT_EQ(expect.evaluations, got.evaluations);
}

TEST(SolverFacade, MasterSlaveMatchesDirectConstruction) {
  const StopCondition stop = StopCondition::generations(12);
  GaConfig cfg;
  cfg.population = 24;
  cfg.seed = 3;
  const EnginePtr direct = make_master_slave_engine(flow_shop(), cfg);
  const RunResult expect = direct->run(stop);
  const RunResult got =
      Solver::build(SolverSpec::parse("engine=master-slave pop=24 seed=3"),
                    flow_shop())
          .run(stop);
  EXPECT_EQ(expect.history, got.history);
  EXPECT_EQ(expect.best.seq, got.best.seq);
}

TEST(SolverFacade, CellularMatchesDirectConstruction) {
  const StopCondition stop = StopCondition::generations(8);
  CellularConfig cfg;
  cfg.width = 6;
  cfg.height = 6;
  cfg.seed = 7;
  CellularGa direct(flow_shop(), cfg);
  const RunResult expect = direct.run(stop);
  const RunResult got =
      Solver::build(SolverSpec::parse("engine=cellular width=6 height=6 seed=7"),
                    flow_shop())
          .run(stop);
  EXPECT_EQ(expect.history, got.history);
  EXPECT_EQ(expect.best.seq, got.best.seq);
}

TEST(SolverFacade, IslandMatchesDirectConstruction) {
  const StopCondition stop = StopCondition::generations(10);
  IslandGaConfig cfg;
  cfg.islands = 3;
  cfg.base.population = 16;
  cfg.base.seed = 9;
  cfg.migration.interval = 4;
  IslandGa direct(flow_shop(), cfg);
  const RunResult expect = direct.run(stop);
  const RunResult got =
      Solver::build(
          SolverSpec::parse("engine=island islands=3 pop=16 seed=9 interval=4"),
          flow_shop())
          .run(stop);
  EXPECT_EQ(expect.history, got.history);
  EXPECT_EQ(expect.best.seq, got.best.seq);
  ASSERT_TRUE(got.islands.has_value());
  EXPECT_EQ(expect.islands->best, got.islands->best);
}

TEST(SolverFacade, IslandsOfCellularMatchesDirectConstruction) {
  const StopCondition stop = StopCondition::generations(6);
  IslandsOfCellularConfig cfg;
  cfg.islands = 2;
  cfg.cell.width = 4;
  cfg.cell.height = 4;
  cfg.seed = 11;
  cfg.migration_interval = 3;
  IslandsOfCellularGa direct(job_shop(), cfg);
  const RunResult expect = direct.run(stop);
  const RunResult got =
      Solver::build(SolverSpec::parse("engine=islands-of-cellular islands=2 "
                                      "width=4 height=4 seed=11 interval=3"),
                    job_shop())
          .run(stop);
  EXPECT_EQ(expect.history, got.history);
  EXPECT_EQ(expect.best.seq, got.best.seq);
}

TEST(SolverFacade, QuantumMatchesDirectConstruction) {
  const StopCondition stop = StopCondition::generations(10);
  QuantumGaConfig cfg;
  cfg.islands = 2;
  cfg.population = 8;
  cfg.seed = 13;
  QuantumGa direct(job_shop(), cfg);
  const RunResult expect = direct.run(stop);
  const RunResult got =
      Solver::build(SolverSpec::parse("engine=quantum islands=2 pop=8 seed=13"),
                    job_shop())
          .run(stop);
  EXPECT_EQ(expect.history, got.history);
  EXPECT_EQ(expect.best.seq, got.best.seq);
  ASSERT_TRUE(got.quantum.has_value());
  EXPECT_GT(got.quantum->final_noise, 0.0);
}

TEST(SolverFacade, MemeticMatchesDirectConstruction) {
  const StopCondition stop = StopCondition::generations(9);
  MemeticConfig cfg;
  cfg.base.population = 20;
  cfg.base.seed = 15;
  cfg.interval = 3;
  cfg.refine_count = 2;
  cfg.search_budget = 40;
  MemeticGa direct(flow_shop(), cfg);
  const RunResult expect = direct.run(stop);
  const RunResult got =
      Solver::build(SolverSpec::parse("engine=memetic pop=20 seed=15 "
                                      "interval=3 refine=2 budget=40"),
                    flow_shop())
          .run(stop);
  EXPECT_EQ(expect.history, got.history);
  EXPECT_EQ(expect.best.seq, got.best.seq);
  EXPECT_EQ(expect.evaluations, got.evaluations);
}

TEST(SolverFacade, ClusterMatchesDirectConstruction) {
  const StopCondition stop = StopCondition::generations(8);
  ClusterIslandConfig cfg;
  cfg.ranks = 2;
  cfg.base.population = 12;
  cfg.base.seed = 17;
  cfg.neighbor_interval = 3;
  cfg.broadcast_interval = 0;
  ClusterIslandGa direct(flow_shop(), cfg);
  const RunResult expect = direct.run(stop);
  const RunResult got =
      Solver::build(SolverSpec::parse("engine=cluster ranks=2 pop=12 seed=17 "
                                      "interval=3 broadcast=0"),
                    flow_shop())
          .run(stop);
  EXPECT_DOUBLE_EQ(expect.best_objective, got.best_objective);
  ASSERT_TRUE(got.islands.has_value());
  EXPECT_EQ(expect.islands->best, got.islands->best);
}

// --- registry round-trips ----------------------------------------------------

TEST(SolverSpecRegistry, EveryEngineTimesEveryCrossoverRoundTrips) {
  // Small instance so the full engine x operator product stays fast.
  auto problem = std::make_shared<FlowShopProblem>(
      sched::taillard_flow_shop(8, 3, 1234));
  const StopCondition one_gen = StopCondition::generations(1);
  for (const std::string& engine : engine_names()) {
    for (const std::string& xover : crossover_names(SeqKind::kPermutation)) {
      const std::string text = "engine=" + engine + " xover=" + xover +
                               " pop=8 islands=2 ranks=2 width=3 height=3";
      SCOPED_TRACE(text);
      const SolverSpec spec = SolverSpec::parse(text);
      EXPECT_EQ(spec.engine, engine);
      ASSERT_TRUE(spec.crossover.has_value());
      EXPECT_EQ(*spec.crossover, xover);
      const RunResult r = Solver::build(spec, problem).run(one_gen);
      EXPECT_GT(r.best_objective, 0.0);
    }
  }
}

TEST(SolverSpecRegistry, EveryEngineTimesEveryMutationAndSelectionRoundTrips) {
  auto problem = std::make_shared<FlowShopProblem>(
      sched::taillard_flow_shop(8, 3, 99));
  const StopCondition one_gen = StopCondition::generations(1);
  const std::vector<std::string> selections = {"roulette", "sus", "tournament3",
                                               "rank", "elitist-roulette"};
  for (const std::string& engine : engine_names()) {
    for (const std::string& mut : sequence_mutation_names()) {
      const std::string text = "engine=" + engine + " mut=" + mut +
                               " pop=8 islands=2 ranks=2 width=3 height=3";
      SCOPED_TRACE(text);
      const RunResult r =
          Solver::build(SolverSpec::parse(text), problem).run(one_gen);
      EXPECT_GT(r.best_objective, 0.0);
    }
    for (const std::string& sel : selections) {
      const std::string text = "engine=" + engine + " sel=" + sel +
                               " pop=8 islands=2 ranks=2 width=3 height=3";
      SCOPED_TRACE(text);
      const RunResult r =
          Solver::build(SolverSpec::parse(text), problem).run(one_gen);
      EXPECT_GT(r.best_objective, 0.0);
    }
  }
}

TEST(SolverSpecRegistry, RegisteredEngineNamesAreComplete) {
  const std::vector<std::string> names = engine_names();
  for (const char* expected :
       {"simple", "master-slave", "cellular", "island", "islands-of-cellular",
        "quantum", "memetic", "cluster"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << expected;
  }
}

TEST(SolverSpecRegistry, CustomEngineRegistration) {
  register_engine("custom-simple",
                  [](ProblemPtr problem, const SolverSpec&, par::ThreadPool*) {
                    GaConfig cfg;
                    cfg.population = 10;
                    return make_engine(std::move(problem), cfg);
                  });
  const RunResult r =
      Solver::build(SolverSpec::parse("engine=custom-simple"), flow_shop())
          .run(StopCondition::generations(2));
  EXPECT_GT(r.best_objective, 0.0);
}

// --- spec round-trips: property/fuzz style -----------------------------------

TEST(SolverSpecRoundTrip, CanonicalStringReparsesToTheSameSpec) {
  for (const char* text :
       {"engine=simple", "engine=simple pop=100 seed=7 xover=ox mut=swap",
        "engine=master-slave pop=200 eval=pool",
        "engine=cellular width=16 height=16 neighborhood=moore radius=2",
        "engine=island islands=8 topology=hypercube policy=best-random "
        "interval=5 eval=serial eval_cache=lru:65536",
        "engine=island eval=pool eval_cache=lru:65536",
        "engine=quantum islands=4 pop=20 eval=pool",
        "engine=cluster ranks=6 interval=5 broadcast=25 eval_cache=lru:4096",
        "engine=memetic pop=60 interval=5 refine=2 budget=150 "
        "eval_cache=off xover-rate=0.85 mut-rate=0.15"}) {
    SCOPED_TRACE(text);
    const SolverSpec spec = SolverSpec::parse(text);
    EXPECT_EQ(SolverSpec::parse(spec.to_string()), spec);
  }
}

TEST(SolverSpecRoundTrip, RandomSpecsSurviveParsePrintParse) {
  // Property-style sweep: random subsets of the whole token grammar,
  // random values, 200 draws — spec -> to_string -> parse must be the
  // identity, including the eval backend/cache tokens.
  par::Rng rng(4242);
  const std::vector<std::string> engines = engine_names();
  const char* evals[] = {"serial", "pool"};
  const char* caches[] = {"off", "lru:1", "lru:16", "lru:65536"};
  const char* topologies[] = {"ring", "grid",  "torus",     "full",
                              "star", "hypercube", "random"};
  const char* policies[] = {"best-worst", "best-random", "random-random"};
  const char* sels[] = {"roulette", "sus", "tournament3", "rank"};
  for (int draw = 0; draw < 200; ++draw) {
    std::string text = "engine=" + engines[rng.below(engines.size())];
    if (rng.chance(0.5)) text += " pop=" + std::to_string(rng.range(2, 500));
    if (rng.chance(0.5)) text += " elites=" + std::to_string(rng.range(0, 8));
    if (rng.chance(0.5)) text += " seed=" + std::to_string(rng() >> 1);
    if (rng.chance(0.5)) text += std::string(" eval=") + evals[rng.below(2)];
    if (rng.chance(0.5)) {
      text += std::string(" eval_cache=") + caches[rng.below(4)];
    }
    if (rng.chance(0.3)) text += std::string(" sel=") + sels[rng.below(4)];
    if (rng.chance(0.3)) {
      text += " xover-rate=" + std::to_string(rng.uniform());
      text += " mut-rate=" + std::to_string(rng.uniform());
    }
    if (rng.chance(0.3)) {
      text += " islands=" + std::to_string(rng.range(2, 16));
      text += std::string(" topology=") + topologies[rng.below(7)];
      text += std::string(" policy=") + policies[rng.below(3)];
      text += " interval=" + std::to_string(rng.range(1, 20));
    }
    if (rng.chance(0.3)) {
      text += " width=" + std::to_string(rng.range(2, 16));
      text += " height=" + std::to_string(rng.range(2, 16));
      text += rng.chance(0.5) ? " neighborhood=moore" : " neighborhood=von-neumann";
    }
    if (rng.chance(0.3)) text += " ranks=" + std::to_string(rng.range(2, 8));
    SCOPED_TRACE(text);
    const SolverSpec once = SolverSpec::parse(text);
    const SolverSpec twice = SolverSpec::parse(once.to_string());
    EXPECT_EQ(once, twice);
    EXPECT_EQ(once.to_string(), twice.to_string());
  }
}

TEST(SolverSpecRoundTrip, SpecToSolverToSpecIsTheIdentity) {
  // The full loop the satellite asks for: spec -> Solver -> spec.
  for (const char* text :
       {"engine=simple pop=12 seed=3 eval=pool eval_cache=lru:512",
        "engine=island islands=2 pop=8 interval=2 eval_cache=lru:64",
        "engine=cellular width=4 height=3 eval=serial"}) {
    SCOPED_TRACE(text);
    const SolverSpec spec = SolverSpec::parse(text);
    Solver solver = Solver::build(spec, flow_shop());
    EXPECT_EQ(solver.spec(), spec);
    EXPECT_EQ(SolverSpec::parse(solver.spec().to_string()), spec);
  }
}

TEST(SolverSpecRoundTrip, MalformedTokenFuzzAlwaysThrows) {
  // Deterministic fuzz over broken shapes: every draw must throw
  // std::invalid_argument and never crash or silently parse.
  par::Rng rng(777);
  const std::string valid = "engine=simple pop=20 eval_cache=lru:64";
  for (int draw = 0; draw < 200; ++draw) {
    std::string text = valid;
    switch (rng.below(6)) {
      case 0:  // junk key
        text += " zz" + std::to_string(rng.below(100)) + "=1";
        break;
      case 1:  // missing '='
        text += " population";
        break;
      case 2:  // empty value
        text += " pop=";
        break;
      case 3:  // empty key
        text += " =5";
        break;
      case 4:  // malformed numbers / enums
        text += rng.chance(0.5) ? " pop=12x" : " eval=gpu";
        break;
      case 5:  // malformed cache tokens
        text += rng.chance(0.5) ? " eval_cache=lru:" : " eval_cache=lru:0";
        break;
    }
    SCOPED_TRACE(text);
    EXPECT_THROW(SolverSpec::parse(text), std::invalid_argument);
  }
}

TEST(SolverSpecRoundTrip, ProgrammaticEvalCacheConfigsSurviveToString) {
  // A spec built in code (not parsed) must round-trip too: a capacity
  // prints as lru:<capacity>, and 0 as off.
  SolverSpec spec;
  spec.engine = "island";
  for (const std::size_t capacity : {1024, 1, 0}) {
    spec.eval_cache = capacity;
    EXPECT_EQ(SolverSpec::parse(spec.to_string()), spec);
  }
  EXPECT_NE(spec.to_string().find("eval_cache=off"), std::string::npos);
}

TEST(SolverSpec, RemovedEvalCacheFormsAreRefused) {
  // The unbounded mode and the :<shards> suffix are gone. A spec naming
  // them fails loudly, naming the token and listing the two forms left;
  // no alias runs it as another configuration. psgad takes specs from
  // any client, so no shard count gets through either.
  for (const char* token :
       {"eval_cache=unbounded", "eval_cache=unbounded:8",
        "eval_cache=lru:4096:16", "eval_cache=lru:16:2000000",
        "eval_cache=unbounded:x", "eval_cache=lru:-1"}) {
    SCOPED_TRACE(token);
    try {
      SolverSpec::parse(std::string("engine=simple ") + token);
      FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(token), std::string::npos) << what;
      EXPECT_NE(what.find("(off | lru:<capacity>)"), std::string::npos)
          << what;
    }
    try {
      RunSpec::parse(
          std::string("problem=flowshop instance=ta001 engine=simple ") +
          token);
      FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(token), std::string::npos)
          << e.what();
    }
  }
}

TEST(SolverSpec, EvalCacheAndBackendTokensParse) {
  const SolverSpec spec = SolverSpec::parse(
      "engine=island eval=pool eval_cache=lru:65536");
  ASSERT_TRUE(spec.eval.has_value());
  EXPECT_EQ(*spec.eval, EvalBackend::kThreadPool);
  EXPECT_EQ(spec.eval_cache, 65536u);
  EXPECT_EQ(SolverSpec::parse("engine=simple eval_cache=off").eval_cache, 0u);
  EXPECT_EQ(SolverSpec::parse("engine=simple").eval_cache, std::nullopt);
}

// --- error reporting ---------------------------------------------------------

TEST(SolverSpec, UnknownKeyThrowsWithOffendingToken) {
  try {
    SolverSpec::parse("engine=simple bogus-key=3");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("bogus-key=3"), std::string::npos)
        << e.what();
  }
}

TEST(SolverSpec, MalformedTokenThrowsWithOffendingToken) {
  try {
    SolverSpec::parse("engine=simple pop");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("pop"), std::string::npos);
  }
  try {
    SolverSpec::parse("pop=abc");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("pop=abc"), std::string::npos);
  }
  EXPECT_THROW(SolverSpec::parse("topology=moebius"), std::invalid_argument);
  // Unknown backends fail loudly, naming the token and listing the
  // accepted values. The deleted async pipeline's and OpenMP runtime's
  // tokens get no alias on purpose: a stale spec must not silently run
  // another configuration.
  for (const char* token : {"eval=gpu", "eval=async_pool", "eval=omp"}) {
    SCOPED_TRACE(token);
    try {
      SolverSpec::parse(std::string("engine=simple ") + token);
      FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(token), std::string::npos) << what;
      EXPECT_NE(what.find("(serial|pool)"), std::string::npos) << what;
    }
    EXPECT_THROW(
        RunSpec::parse(std::string("problem=flowshop instance=ta001 ") + token),
        std::invalid_argument);
  }
  // The deleted chunk-size knob and the deleted eval_backend= alias of
  // eval= are unknown keys, through either parser.
  for (const char* token :
       {"eval_batch=16", "eval_backend=pool", "eval_backend=async"}) {
    SCOPED_TRACE(token);
    try {
      SolverSpec::parse(std::string("engine=simple ") + token);
      FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(token), std::string::npos) << what;
      EXPECT_NE(what.find("unknown key"), std::string::npos) << what;
    }
    try {
      RunSpec::parse(
          std::string("problem=flowshop instance=ta001 engine=simple ") +
          token);
      FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(token), std::string::npos)
          << e.what();
    }
  }
}

TEST(SolverSpec, RanksOutsideOneToMaxRanksAreRefused) {
  // Every cluster rank is a std::thread, so the bound is a parse error:
  // no refused value reaches Cluster::run or starts a thread.
  for (const char* value : {"0", "-1", "257", "100000", "2147483647"}) {
    const std::string token = std::string("ranks=") + value;
    SCOPED_TRACE(token);
    try {
      SolverSpec::parse("engine=cluster " + token);
      FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(token), std::string::npos) << what;
      EXPECT_NE(what.find("[1, 256]"), std::string::npos) << what;
    }
    EXPECT_THROW(
        RunSpec::parse("problem=flowshop instance=ta001 engine=cluster " +
                       token),
        std::invalid_argument);
  }
  EXPECT_EQ(SolverSpec::parse("engine=cluster ranks=1").ranks, 1);
  EXPECT_EQ(SolverSpec::parse("engine=cluster ranks=256").ranks,
            SolverSpec::kMaxRanks);
}

TEST(SolverSpec, SizeTokensOutsideTheirBoundsAreRefused) {
  // islands=0 and width=0 crashed the engines (front() of an empty
  // vector), radius=0 left cells without a mate (a division by zero),
  // and pop=0 "finished" with best objective 0: every size token is a
  // parse error outside its range, through both parsers, so psgad's
  // submit refuses it too.
  struct Bound {
    const char* key;
    int lo;
    int hi;
  };
  const Bound bounds[] = {
      {"pop", 1, SolverSpec::kMaxPopulation},
      {"elites", 0, SolverSpec::kMaxPopulation},
      {"migrants", 0, SolverSpec::kMaxPopulation},
      {"islands", 1, SolverSpec::kMaxIslands},
      {"width", 1, SolverSpec::kMaxGridSide},
      {"height", 1, SolverSpec::kMaxGridSide},
      {"interval", 0, SolverSpec::kMaxPeriod},
      {"broadcast", 0, SolverSpec::kMaxPeriod},
      {"radius", 1, SolverSpec::kMaxRadius},
      {"ranks", 1, SolverSpec::kMaxRanks},
  };
  const auto token_of = [](const Bound& b, long long value) {
    return std::string(b.key) + "=" + std::to_string(value);
  };
  for (const Bound& b : bounds) {
    const std::string range =
        "[" + std::to_string(b.lo) + ", " + std::to_string(b.hi) + "]";
    for (long long value :
         {static_cast<long long>(b.lo) - 1, static_cast<long long>(b.hi) + 1,
          -2147483648LL, 2147483647LL}) {
      const std::string token = token_of(b, value);
      SCOPED_TRACE(token);
      for (const std::string& text :
           {token, "problem=flowshop instance=ta001 " + token}) {
        try {
          if (text == token) {
            SolverSpec::parse(text);
          } else {
            RunSpec::parse(text);
          }
          ADD_FAILURE() << "accepted: " << text;
        } catch (const std::invalid_argument& e) {
          const std::string what = e.what();
          EXPECT_NE(what.find("'" + token + "'"), std::string::npos) << what;
          EXPECT_NE(what.find(range), std::string::npos) << what;
        }
      }
    }
    for (int value : {b.lo, b.hi}) {
      EXPECT_NO_THROW(SolverSpec::parse(token_of(b, value)));
      EXPECT_NO_THROW(RunSpec::parse("problem=flowshop instance=ta001 " +
                                     token_of(b, value)));
    }
  }
}

TEST(SolverSpec, ImmigrationAndRefineOutsideTheirRangesAreRefused) {
  // immigration=-1 (SIGSEGV) and refine=-3 with interval=1 (SIGABRT)
  // each killed psgad from one submit. immigration= is a fraction in
  // [0, 1]; refine= counts individuals, in [0, kMaxPopulation].
  const std::string refine_range =
      "[0, " + std::to_string(SolverSpec::kMaxPopulation) + "]";
  const struct {
    const char* token;
    std::string range;
  } refused[] = {{"immigration=-1", "[0, 1]"},   {"immigration=-0.5", "[0, 1]"},
                 {"immigration=1.5", "[0, 1]"},  {"immigration=nan", "[0, 1]"},
                 {"immigration=inf", "[0, 1]"},  {"immigration=-inf", "[0, 1]"},
                 {"refine=-3", refine_range},    {"refine=-1", refine_range},
                 {"refine=65537", refine_range}};
  for (const auto& row : refused) {
    SCOPED_TRACE(row.token);
    for (const std::string& text :
         {std::string("engine=memetic interval=1 ") + row.token,
          std::string("problem=flowshop instance=ta001 engine=memetic ") +
              row.token}) {
      try {
        if (text.rfind("problem=", 0) == 0) {
          RunSpec::parse(text);
        } else {
          SolverSpec::parse(text);
        }
        ADD_FAILURE() << "accepted: " << text;
      } catch (const std::invalid_argument& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find(std::string("'") + row.token + "'"),
                  std::string::npos)
            << what;
        EXPECT_NE(what.find(row.range), std::string::npos) << what;
      }
    }
  }
  EXPECT_EQ(SolverSpec::parse("immigration=0").immigration, 0.0);
  EXPECT_EQ(SolverSpec::parse("immigration=1").immigration, 1.0);
  EXPECT_EQ(SolverSpec::parse("refine=0").refine, 0);
  EXPECT_EQ(SolverSpec::parse("refine=65536").refine,
            SolverSpec::kMaxPopulation);
}

TEST(SolverSpec, SignedSeedIsRefused) {
  // std::stoull negates a leading '-': seed=-1 read as 2^64 - 1.
  try {
    SolverSpec::parse("engine=simple seed=-1");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("seed=-1"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(SolverSpec::parse("seed=18446744073709551615").seed,
            18446744073709551615ull);
}

TEST(Solver, UnknownEngineThrowsListingRegistered) {
  try {
    Solver::build(SolverSpec::parse("engine=annealing"), flow_shop());
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("annealing"), std::string::npos);
    EXPECT_NE(what.find("island"), std::string::npos);
  }
}

// --- observer hooks ----------------------------------------------------------

class CountingObserver : public RunObserver {
 public:
  bool on_generation(const Engine&, const GenerationEvent& event) override {
    ++generations_seen;
    last_generation = event.generation;
    return stop_after < 0 || event.generation < stop_after;
  }
  void on_improvement(const Engine&, const GenerationEvent& event) override {
    improvements.push_back(event.best_objective);
  }
  void on_migration(const MigrationEvent& event) override {
    ++migrations;
    last_migration_to = event.to;
  }

  int generations_seen = 0;
  int last_generation = 0;
  int stop_after = -1;
  int migrations = 0;
  int last_migration_to = -1;
  std::vector<double> improvements;
};

TEST(RunObserverHooks, GenerationAndImprovementEvents) {
  CountingObserver observer;
  Solver solver =
      Solver::build(SolverSpec::parse("engine=simple pop=20 seed=21"),
                    flow_shop());
  solver.set_observer(&observer);
  const RunResult r = solver.run(StopCondition::generations(10));
  // Gen 0 (after init) plus one event per step.
  EXPECT_EQ(observer.generations_seen, 11);
  EXPECT_EQ(observer.last_generation, r.generations);
  // The initial best always counts as an improvement; improvements must
  // be strictly decreasing.
  ASSERT_FALSE(observer.improvements.empty());
  EXPECT_DOUBLE_EQ(observer.improvements.front(), r.history.front());
  for (std::size_t i = 1; i < observer.improvements.size(); ++i) {
    EXPECT_LT(observer.improvements[i], observer.improvements[i - 1]);
  }
}

TEST(RunObserverHooks, ReturningFalseStopsTheRunEarly) {
  CountingObserver observer;
  observer.stop_after = 3;
  Solver solver =
      Solver::build(SolverSpec::parse("engine=simple pop=20 seed=23"),
                    flow_shop());
  solver.set_observer(&observer);
  const RunResult r = solver.run(StopCondition::generations(100));
  EXPECT_EQ(r.generations, 3);
}

TEST(RunObserverHooks, MigrationEventsFromIslandEngine) {
  CountingObserver observer;
  Solver solver = Solver::build(
      SolverSpec::parse("engine=island islands=3 pop=10 seed=25 interval=1"),
      flow_shop());
  solver.set_observer(&observer);
  solver.run(StopCondition::generations(6));
  EXPECT_GT(observer.migrations, 0);
  EXPECT_GE(observer.last_migration_to, 0);
  EXPECT_LT(observer.last_migration_to, 3);
}

// --- universal stop conditions ----------------------------------------------

class BudgetSweep : public ::testing::TestWithParam<const char*> {};

TEST_P(BudgetSweep, EveryEngineRespectsFiftyMsWallClock) {
  // Small problem, huge generation cap: only the wall-clock budget can
  // end the run. Generous upper bound: the budget check runs between
  // generations, so a run may overshoot by a few generation times.
  auto problem = std::make_shared<FlowShopProblem>(
      sched::taillard_flow_shop(10, 4, 777));
  Solver solver = Solver::build(SolverSpec::parse(GetParam()), problem);
  const RunResult r = solver.run(StopCondition::time_budget(0.05));
  EXPECT_GE(r.seconds, 0.05);
  EXPECT_LT(r.seconds, 1.0) << "engine ran far past its 50 ms budget";
  EXPECT_GT(r.generations, 0);
  EXPECT_GT(r.evaluations, 0);
}

INSTANTIATE_TEST_SUITE_P(
    AllEngines, BudgetSweep,
    ::testing::Values("engine=simple pop=16",
                      "engine=master-slave pop=16",
                      "engine=cellular width=4 height=4",
                      "engine=island islands=2 pop=8 interval=2",
                      "engine=islands-of-cellular islands=2 width=3 height=3",
                      "engine=quantum islands=2 pop=8",
                      "engine=memetic pop=16 interval=2 budget=20",
                      "engine=cluster ranks=2 pop=8 interval=2 broadcast=4"));

TEST(StopConditions, EvaluationBudgetStopsTheRun) {
  const RunResult r =
      Solver::build(SolverSpec::parse("engine=simple pop=20 seed=31"),
                    flow_shop())
          .run(StopCondition::evaluation_budget(100));
  EXPECT_GE(r.evaluations, 100);
  EXPECT_LE(r.evaluations, 120);  // overshoot bounded by one generation
}

TEST(StopConditions, TargetObjectiveStopsTheRun) {
  // A target below any reachable makespan: runs to the generation cap.
  const RunResult unreachable =
      Solver::build(SolverSpec::parse("engine=simple pop=16 seed=33"),
                    flow_shop())
          .run(StopCondition::target(1.0, 5));
  EXPECT_EQ(unreachable.generations, 5);
  // A trivially satisfied target: stops immediately after init.
  const RunResult trivial =
      Solver::build(SolverSpec::parse("engine=simple pop=16 seed=33"),
                    flow_shop())
          .run(StopCondition::target(1e9, 5));
  EXPECT_EQ(trivial.generations, 0);
}

}  // namespace
}  // namespace psga::ga
