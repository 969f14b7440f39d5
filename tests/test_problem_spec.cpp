// The problem registry + ProblemSpec lockdown: parse/build/to_string
// round-trips across every registered problem, structured errors for
// unknown problem/criterion tokens and unresolvable instance= values
// (mirroring the malformed-token tests in test_solver_facade.cpp), the
// combined RunSpec split, and the Taillard single-source-of-truth check
// (generator output byte-equals the committed data files).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>

#include "src/ga/problem_registry.h"
#include "src/ga/problem_spec.h"
#include "src/ga/solver.h"
#include "src/par/rng.h"
#include "src/sched/io.h"
#include "src/sched/taillard.h"

#ifndef PSGA_DATA_DIR
#define PSGA_DATA_DIR "data"
#endif

namespace psga::ga {
namespace {

// One representative (small, fast-to-build) spec per registered problem.
// RoundTripCoversEveryRegisteredProblem asserts this map stays in sync
// with the registry, so adding a problem without extending the suite
// fails loudly.
const std::map<std::string, std::string>& representative_specs() {
  static const std::map<std::string, std::string> specs = {
      {"flowshop", "problem=flowshop instance=ta001"},
      {"jobshop", "problem=jobshop instance=ft06 decoder=active"},
      {"openshop",
       "problem=openshop decoder=lpt-machine "
       "instance=gen:jobs=4,machines=3,seed=5"},
      {"hybrid-flowshop",
       "problem=hybrid-flowshop instance=gen:jobs=5,stages=2x2,seed=5"},
      {"flexible-jobshop",
       "problem=flexible-jobshop "
       "instance=gen:jobs=4,machines=3,ops=3,eligible=2,seed=5"},
      {"lot-streaming",
       "problem=lot-streaming "
       "instance=gen:jobs=3,stages=2x2,sublots=2,seed=5"},
      {"fuzzy-flowshop",
       "problem=fuzzy-flowshop instance=gen:jobs=5,machines=3,seed=5 "
       "spread=0.25"},
      {"stochastic-jobshop",
       "problem=stochastic-jobshop instance=gen:jobs=4,machines=3,seed=5 "
       "scenarios=3 instance-seed=9"},
      {"energy-flowshop",
       "problem=energy-flowshop instance=gen:jobs=5,machines=3,seed=5 "
       "w-makespan=0.5 w-energy=0.02 w-peak=1.5 instance-seed=4"},
      {"dynamic-jobshop",
       "problem=dynamic-jobshop instance=gen:jobs=4,machines=3,seed=5 "
       "downtimes=2 instance-seed=3"},
  };
  return specs;
}

// --- registry ----------------------------------------------------------------

TEST(ProblemRegistry, ListsBuiltinsWithDescriptions) {
  const std::vector<std::string> names = problem_names();
  for (const char* expected :
       {"flowshop", "jobshop", "openshop", "hybrid-flowshop",
        "flexible-jobshop", "lot-streaming", "fuzzy-flowshop",
        "stochastic-jobshop", "energy-flowshop", "dynamic-jobshop"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << expected << " missing from problem_names()";
  }
  for (const RegistryEntry& entry : problem_catalog()) {
    EXPECT_FALSE(entry.description.empty())
        << "problem '" << entry.name << "' has no description";
  }
}

TEST(ProblemRegistry, EngineCatalogDescribesEveryEngine) {
  const std::vector<RegistryEntry> catalog = engine_catalog();
  EXPECT_GE(catalog.size(), 8u);
  for (const RegistryEntry& entry : catalog) {
    EXPECT_FALSE(entry.description.empty())
        << "engine '" << entry.name << "' has no description";
  }
}

TEST(ProblemRegistry, RegisterProblemExtendsSpecLanguage) {
  register_problem(
      "test-flowshop",
      [](const ProblemSpec& spec) {
        ProblemSpec inner = spec;
        inner.problem = "flowshop";
        return inner.build();
      },
      "registration smoke test");
  const ProblemPtr built =
      ProblemSpec::parse("problem=test-flowshop instance=ta001").build();
  ASSERT_NE(built, nullptr);
  EXPECT_GT(built->traits().seq_length, 0);
}

// --- round-trips -------------------------------------------------------------

TEST(ProblemSpec, RoundTripCoversEveryRegisteredProblem) {
  for (const std::string& name : problem_names()) {
    if (name == "test-flowshop") continue;  // registered by the test above
    ASSERT_TRUE(representative_specs().count(name))
        << "no representative spec for registered problem '" << name
        << "' — extend representative_specs()";
  }
}

TEST(ProblemSpec, ParseBuildToStringRoundTripsAllProblems) {
  for (const auto& [name, text] : representative_specs()) {
    const ProblemSpec spec = ProblemSpec::parse(text);
    EXPECT_EQ(spec.problem, name);
    // to_string -> parse is the identity.
    EXPECT_EQ(ProblemSpec::parse(spec.to_string()), spec) << text;
    // The spec builds a usable problem: a random genome evaluates to a
    // finite objective.
    const ProblemPtr problem = spec.build();
    ASSERT_NE(problem, nullptr) << text;
    par::Rng rng(7);
    const Genome genome = problem->random_genome(rng);
    EXPECT_TRUE(std::isfinite(problem->objective(genome))) << text;
  }
}

TEST(ProblemSpec, FuzzedOptionalFieldsSurviveRoundTrip) {
  // Cross optional fields over their sensible carriers; every rendered
  // form must reparse to the identical spec (the SolverSpec fuzz suite's
  // problem-side twin).
  using sched::Criterion;
  for (const Criterion criterion :
       {Criterion::kMakespan, Criterion::kTotalWeightedCompletion,
        Criterion::kTotalWeightedTardiness, Criterion::kWeightedUnitPenalty,
        Criterion::kMaxTardiness}) {
    for (const char* encoding : {"permutation", "random-key"}) {
      ProblemSpec spec;
      spec.problem = "flowshop";
      spec.instance = "ta002";
      spec.criterion = criterion;
      spec.encoding = encoding;
      EXPECT_EQ(ProblemSpec::parse(spec.to_string()), spec);
    }
  }
  ProblemSpec spec;
  spec.problem = "stochastic-jobshop";
  spec.instance = "gen:jobs=4,machines=3,seed=11";
  spec.instance_seed = 0xFFFFFFFFFFFFFFFFull;  // full-range u64 survives
  spec.spread = 0.125;
  spec.scenarios = 5;
  EXPECT_EQ(ProblemSpec::parse(spec.to_string()), spec);
  ProblemSpec energy;
  energy.problem = "energy-flowshop";
  energy.instance = "gen:jobs=5,machines=3,seed=5";
  energy.w_makespan = 0.1;
  energy.w_energy = 1.0 / 3.0;  // needs max_digits10 to survive
  energy.w_peak = 2.5;
  EXPECT_EQ(ProblemSpec::parse(energy.to_string()), energy);
}

TEST(ProblemSpec, CriterionAliasesRenderCanonically) {
  EXPECT_EQ(ProblemSpec::parse("criterion=total_flow instance=ta001"),
            ProblemSpec::parse("criterion=total-flow instance=ta001"));
  EXPECT_EQ(ProblemSpec::parse("criterion=cmax instance=ta001"),
            ProblemSpec::parse("criterion=makespan instance=ta001"));
  EXPECT_NE(ProblemSpec::parse("criterion=total_flow instance=ta001")
                .to_string()
                .find("criterion=total-flow"),
            std::string::npos);
  // encoding/decoder aliases canonicalize too, so equivalent specs share
  // one canonical string (one sweep cache key, one provenance form).
  EXPECT_EQ(ProblemSpec::parse("encoding=random_key instance=ta001"),
            ProblemSpec::parse("encoding=random-key instance=ta001"));
  EXPECT_EQ(ProblemSpec::parse(
                "problem=jobshop decoder=giffler-thompson instance=ft06"),
            ProblemSpec::parse("problem=jobshop decoder=active instance=ft06"));
}

TEST(ProblemSpec, InfersProblemFamilyFromInstance) {
  EXPECT_EQ(ProblemSpec::parse("instance=ta003").problem, "flowshop");
  EXPECT_EQ(ProblemSpec::parse("instance=data/ta001.fsp").problem, "flowshop");
  EXPECT_EQ(ProblemSpec::parse("instance=ft06").problem, "jobshop");
  EXPECT_EQ(ProblemSpec::parse("instance=la01").problem, "jobshop");
  EXPECT_EQ(ProblemSpec::parse("instance=data/ft10.jsp").problem, "jobshop");
  // An explicit problem= token always wins over inference.
  EXPECT_EQ(
      ProblemSpec::parse("problem=fuzzy-flowshop instance=ta001").problem,
      "fuzzy-flowshop");
}

TEST(ProblemSpec, SpecBuiltProblemMatchesDirectConstruction) {
  const ProblemPtr from_spec = ProblemSpec::parse("instance=ta001").build();
  const auto direct =
      make_problem(sched::make_taillard(sched::taillard_20x5().front()));
  ASSERT_EQ(from_spec->traits().seq_length, direct->traits().seq_length);
  par::Rng rng(13);
  for (int i = 0; i < 5; ++i) {
    const Genome genome = direct->random_genome(rng);
    EXPECT_EQ(from_spec->objective(genome), direct->objective(genome));
  }
}

// --- structured errors -------------------------------------------------------

TEST(ProblemSpec, UnknownProblemListsRegisteredNames) {
  try {
    ProblemSpec::parse("problem=warp-shop instance=ta001").build();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("warp-shop"), std::string::npos);
    EXPECT_NE(message.find("flowshop"), std::string::npos);
    // The canonical spec rides along for fail-soft callers.
    EXPECT_NE(message.find("[problem spec: problem=warp-shop"),
              std::string::npos);
  }
}

TEST(ProblemSpec, UnresolvableInstanceCarriesCanonicalSpec) {
  try {
    ProblemSpec::parse("problem=flowshop instance=nope.xyz").build();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("nope.xyz"), std::string::npos);
    EXPECT_NE(
        message.find("[problem spec: problem=flowshop instance=nope.xyz]"),
        std::string::npos);
  }
}

TEST(ProblemSpec, MissingInstanceFileIsAnError) {
  EXPECT_THROW(
      ProblemSpec::parse("problem=flowshop instance=does-not-exist.fsp")
          .build(),
      std::invalid_argument);
  EXPECT_THROW(ProblemSpec::parse("problem=flowshop").build(),
               std::invalid_argument);  // instance= required
}

TEST(ProblemSpec, MalformedTokensThrow) {
  EXPECT_THROW(ProblemSpec::parse("problem"), std::invalid_argument);
  EXPECT_THROW(ProblemSpec::parse("problem="), std::invalid_argument);
  EXPECT_THROW(ProblemSpec::parse("warp=1"), std::invalid_argument);
  EXPECT_THROW(ProblemSpec::parse("criterion=speed"), std::invalid_argument);
  EXPECT_THROW(ProblemSpec::parse("scenarios=many"), std::invalid_argument);
  EXPECT_THROW(ProblemSpec::parse("spread=wide"), std::invalid_argument);
  // Unsigned values refuse a sign rather than wrap: -1 is not 2^64 - 1.
  EXPECT_THROW(ProblemSpec::parse("instance-seed=-1"), std::invalid_argument);
  EXPECT_THROW(
      ProblemSpec::parse("problem=jobshop instance=gen:jobs=3,machines=3,seed=-1")
          .build(),
      std::invalid_argument);
}

TEST(ProblemSpec, UnknownGenKeysNameTheFamily) {
  try {
    ProblemSpec::parse("problem=openshop instance=gen:bogus=1").build();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("bogus"), std::string::npos);
    EXPECT_NE(message.find("openshop"), std::string::npos);
  }
  // Malformed gen pairs and malformed numbers inside gen: throw too.
  EXPECT_THROW(
      ProblemSpec::parse("problem=openshop instance=gen:jobs").build(),
      std::invalid_argument);
  EXPECT_THROW(
      ProblemSpec::parse("problem=openshop instance=gen:jobs=x").build(),
      std::invalid_argument);
  // Taillard's LCG rejects out-of-range flow-shop seeds instead of
  // silently truncating (0 is a fixed point, > 2^31-2 would wrap).
  EXPECT_THROW(ProblemSpec::parse("instance=gen:seed=0").build(),
               std::invalid_argument);
  EXPECT_THROW(ProblemSpec::parse("instance=gen:seed=4294967296").build(),
               std::invalid_argument);
}

TEST(ProblemSpec, FactoriesRejectFieldsTheyCannotHonor) {
  // lot-streaming has a fixed makespan objective.
  EXPECT_THROW(ProblemSpec::parse("problem=lot-streaming criterion=makespan "
                                  "instance=gen:jobs=3,stages=2x2,seed=1")
                   .build(),
               std::invalid_argument);
  // flow shops have no decoder= axis.
  EXPECT_THROW(
      ProblemSpec::parse("problem=flowshop decoder=active instance=ta001")
          .build(),
      std::invalid_argument);
  // rule chromosomes always decode Giffler-Thompson.
  EXPECT_THROW(ProblemSpec::parse("problem=jobshop encoding=rules "
                                  "decoder=semi-active instance=ft06")
                   .build(),
               std::invalid_argument);
  // unknown encoding / decoder values.
  EXPECT_THROW(
      ProblemSpec::parse("problem=flowshop encoding=tree instance=ta001")
          .build(),
      std::invalid_argument);
  EXPECT_THROW(
      ProblemSpec::parse("problem=jobshop decoder=lazy instance=ft06").build(),
      std::invalid_argument);
  EXPECT_THROW(ProblemSpec::parse("problem=openshop decoder=lpt-job "
                                  "instance=gen:jobs=4,machines=3,seed=1")
                   .build(),
               std::invalid_argument);
}

TEST(ProblemSpec, EncodingVariantsBuildDistinctChromosomes) {
  const ProblemPtr keys =
      ProblemSpec::parse("problem=flowshop encoding=random-key instance=ta001")
          .build();
  EXPECT_EQ(keys->traits().seq_kind, SeqKind::kNone);
  EXPECT_GT(keys->traits().key_length, 0);
  const ProblemPtr rules =
      ProblemSpec::parse("problem=jobshop encoding=rules instance=ft06")
          .build();
  EXPECT_EQ(rules->traits().seq_kind, SeqKind::kNone);
  EXPECT_FALSE(rules->traits().assign_domain.empty());
}

// --- combined RunSpec --------------------------------------------------------

TEST(RunSpec, SplitsProblemAndSolverHalves) {
  const RunSpec spec = RunSpec::parse(
      "problem=jobshop instance=ft06 decoder=active engine=island islands=3 "
      "pop=8 seed=5");
  EXPECT_EQ(spec.problem.problem, "jobshop");
  EXPECT_EQ(spec.problem.instance, "ft06");
  EXPECT_EQ(spec.problem.decoder, std::optional<std::string>("active"));
  EXPECT_EQ(spec.solver.engine, "island");
  EXPECT_EQ(spec.solver.islands, std::optional<int>(3));
  EXPECT_EQ(spec.solver.population, std::optional<int>(8));
  // Token order does not matter; the canonical form round-trips.
  EXPECT_EQ(RunSpec::parse("engine=island islands=3 seed=5 pop=8 "
                           "decoder=active problem=jobshop instance=ft06"),
            spec);
  EXPECT_EQ(RunSpec::parse(spec.to_string()), spec);
}

TEST(RunSpec, UnknownKeysReportThroughSolverSpec) {
  // Keys owned by neither language fall to SolverSpec, whose parser
  // names the offending token.
  try {
    RunSpec::parse("problem=flowshop instance=ta001 warp=9");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("warp=9"), std::string::npos);
  }
}

TEST(RunSpec, SolverBuildRecordsProblemProvenance) {
  Solver solver = Solver::build(RunSpec::parse(
      "problem=flowshop instance=ta001 engine=simple pop=10 seed=3"));
  EXPECT_EQ(solver.problem_spec(), "problem=flowshop instance=ta001");
  const RunResult result = solver.run(StopCondition::generations(2));
  EXPECT_EQ(result.problem, "problem=flowshop instance=ta001");
  // A directly built solver carries no provenance.
  const RunResult direct =
      Solver::build(SolverSpec::parse("engine=simple pop=10 seed=3"),
                    make_problem(sched::make_taillard(
                        sched::taillard_20x5().front())))
          .run(StopCondition::generations(2));
  EXPECT_TRUE(direct.problem.empty());
  EXPECT_EQ(result.history, direct.history);
}

// --- Taillard single source of truth -----------------------------------------

TEST(TaillardData, GeneratorOutputByteEqualsCommittedFiles) {
  // The committed data/ta*.fsp files are cached copies of the embedded
  // generator's output (the single source of truth): serializing the
  // regenerated instance must reproduce each file byte for byte, so the
  // file-path and benchmark-name instance sources can never drift apart.
  for (const sched::TaillardBenchmark& bench : sched::taillard_20x5()) {
    const std::string path =
        std::string(PSGA_DATA_DIR) + "/" + bench.name + ".fsp";
    std::ifstream file(path);
    ASSERT_TRUE(file) << "missing " << path;
    std::ostringstream text;
    text << file.rdbuf();
    EXPECT_EQ(sched::format_flow_shop(sched::make_taillard(bench)),
              text.str())
        << bench.name << " drifted from the embedded generator";
  }
}

TEST(TaillardData, FileAndNameInstanceSourcesAgree) {
  const std::string path = std::string(PSGA_DATA_DIR) + "/ta001.fsp";
  const ProblemPtr from_file =
      ProblemSpec::parse("problem=flowshop instance=" + path).build();
  const ProblemPtr from_name = ProblemSpec::parse("instance=ta001").build();
  par::Rng rng(3);
  for (int i = 0; i < 5; ++i) {
    const Genome genome = from_name->random_genome(rng);
    EXPECT_EQ(from_file->objective(genome), from_name->objective(genome));
  }
}

}  // namespace
}  // namespace psga::ga
