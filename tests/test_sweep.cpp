// The sweep subsystem's lockdown: grid expansion (axis cross-product
// order, zipped group axes, deterministic seed derivation), JSONL
// telemetry round-trips, fail-soft cell errors, and the headline
// invariant — a parallel sweep is bit-identical to a serial one.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/exp/aggregate.h"
#include "src/exp/json.h"
#include "src/exp/report_render.h"
#include "src/exp/sweep_runner.h"
#include "src/exp/sweep_spec.h"
#include "src/exp/telemetry.h"
#include "src/ga/problems.h"
#include "src/ga/solver.h"
#include "src/sched/taillard.h"

#ifndef PSGA_DATA_DIR
#define PSGA_DATA_DIR "data"
#endif

namespace psga::exp {
namespace {

std::string data_path(const std::string& file) {
  return std::string(PSGA_DATA_DIR) + "/" + file;
}

// --- Json -------------------------------------------------------------------

TEST(Json, DumpParseRoundTripsValues) {
  Json line = Json::object();
  line.set("event", Json::string("cell"))
      .set("ok", Json::boolean(true))
      .set("best", Json::number(1278.5))
      .set("seed", Json::uinteger(0xdeadbeefcafef00dULL))
      .set("delta", Json::integer(-42))
      .set("tags", Json::array().push(Json::string("a\"b\\c\n")))
      .set("nothing", Json::null());
  const Json parsed = Json::parse(line.dump());
  EXPECT_EQ(parsed.string_or("event", ""), "cell");
  EXPECT_TRUE(parsed.find("ok")->as_bool());
  EXPECT_DOUBLE_EQ(parsed.number_or("best", 0.0), 1278.5);
  EXPECT_EQ(parsed.find("seed")->as_u64(), 0xdeadbeefcafef00dULL);
  EXPECT_EQ(parsed.find("delta")->as_i64(), -42);
  EXPECT_EQ(parsed.find("tags")->items().at(0).as_string(), "a\"b\\c\n");
  EXPECT_EQ(parsed.find("nothing")->kind(), Json::Kind::kNull);
}

TEST(Json, ExactU64SurvivesWhereDoubleWouldNot) {
  // 2^64 - 59 is not representable as a double; the integer twin must
  // carry it exactly through dump + parse.
  const std::uint64_t big = 18446744073709551557ULL;
  const Json parsed = Json::parse(Json::uinteger(big).dump());
  EXPECT_EQ(parsed.as_u64(), big);
}

TEST(Json, MaxDigitsDoubleRoundTrip) {
  const double value = 1234.5678901234567;
  EXPECT_EQ(Json::parse(Json::number(value).dump()).as_number(), value);
}

TEST(Json, Int64MinRoundTripsWithoutOverflow) {
  const Json parsed = Json::parse("-9223372036854775808");
  EXPECT_EQ(parsed.as_i64(), std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(parsed.dump(), "-9223372036854775808");
}

TEST(Json, IntegerAccessorsReadWholeNumbersExactlyOrThrow) {
  // Plain digits keep the exact 64-bit twin.
  EXPECT_EQ(Json::parse("18446744073709551615").as_u64(),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(Json::parse("9223372036854775807").as_i64(),
            std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(Json::parse("-2147483648").as_int(),
            std::numeric_limits<int>::min());
  // Decimal and exponent forms of a whole number read its value.
  EXPECT_EQ(Json::parse("1e3").as_i64(), 1000);
  EXPECT_EQ(Json::parse("1e3").as_int(), 1000);
  EXPECT_EQ(Json::parse("1e3").as_u64(), 1000u);
  EXPECT_EQ(Json::parse("2000.0").as_i64(), 2000);
  EXPECT_EQ(Json::parse("-2.5e1").as_int(), -25);
  EXPECT_EQ(Json::parse("-0.0").as_u64(), 0u);
  EXPECT_EQ(Json::number(4096.0).as_u64(), 4096u);
  EXPECT_EQ(Json::parse("-9.223372036854775808e18").as_i64(),
            std::numeric_limits<std::int64_t>::min());

  auto error_of = [](const Json& value, int accessor) -> std::string {
    try {
      switch (accessor) {
        case 0: (void)value.as_i64(); break;
        case 1: (void)value.as_int(); break;
        default: (void)value.as_u64(); break;
      }
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "";
  };
  // Refused, naming the value: fractions, values out of range, negatives
  // for as_u64, and anything that is not a number.
  struct Refusal {
    const char* text;
    int accessor;  // 0 = as_i64, 1 = as_int, 2 = as_u64
    const char* named;
  };
  for (const Refusal& refusal : {
           Refusal{"2.5", 0, "2.5"},
           Refusal{"2.5", 1, "2.5"},
           Refusal{"2.5", 2, "2.5"},
           Refusal{"1e300", 1, "e+300"},
           Refusal{"1e300", 0, "e+300"},
           Refusal{"1e300", 2, "e+300"},
           Refusal{"9.3e18", 0, "e+18"},
           Refusal{"18446744073709551615", 0, "18446744073709551615"},
           Refusal{"2147483648", 1, "2147483648"},
           Refusal{"-2147483649", 1, "-2147483649"},
           Refusal{"-1", 2, "-1"},
           Refusal{"-1e0", 2, "-1"},
           Refusal{"\"40\"", 0, "\"40\""},
           Refusal{"true", 1, "true"},
           Refusal{"null", 2, "null"},
           Refusal{"\"nan\"", 0, "nan"},
           Refusal{"\"inf\"", 2, "inf"},
       }) {
    SCOPED_TRACE(std::string(refusal.text) + " via accessor " +
                 std::to_string(refusal.accessor));
    const std::string what =
        error_of(Json::parse(refusal.text), refusal.accessor);
    EXPECT_FALSE(what.empty()) << "expected std::invalid_argument";
    EXPECT_NE(what.find(refusal.named), std::string::npos) << what;
  }
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_THROW(Json::parse("{\"a\":}"), std::invalid_argument);
  EXPECT_THROW(Json::parse("{\"a\":1} trailing"), std::invalid_argument);
  EXPECT_THROW(Json::parse("[1,2"), std::invalid_argument);
  EXPECT_THROW(Json::parse("\"unterminated"), std::invalid_argument);
  EXPECT_THROW(Json::parse("\"\\uzzzz\""), std::invalid_argument);
  EXPECT_THROW(Json::parse("\"\\u12gz\""), std::invalid_argument);
  EXPECT_EQ(Json::parse("\"\\u000a\"").as_string(), "\n");

  // Nesting is capped at kMaxDepth arrays or objects: one level more
  // throws and names the byte that opened it, and so does a hostile
  // 200,000-deep line instead of exhausting the stack.
  const auto levels = static_cast<std::size_t>(Json::kMaxDepth);
  const std::string deepest =
      std::string(levels, '[') + std::string(levels, ']');
  EXPECT_EQ(Json::parse(deepest).items().size(), 1u);
  auto error_of = [](const std::string& text) -> std::string {
    try {
      Json::parse(text);
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "";
  };
  const std::string too_deep = "nesting deeper than " +
                               std::to_string(Json::kMaxDepth) + " levels";
  EXPECT_NE(error_of("[" + deepest + "]")
                .find(too_deep + " at byte " + std::to_string(levels)),
            std::string::npos);
  std::string objects;
  for (std::size_t i = 0; i <= levels; ++i) objects += "{\"a\":";
  EXPECT_NE(error_of(objects).find(too_deep), std::string::npos);
  EXPECT_NE(error_of(std::string(200000, '[')).find(too_deep),
            std::string::npos);
}

// --- SweepSpec parsing ------------------------------------------------------

TEST(SweepSpec, ParsesBaseAxesAndDirectives) {
  const SweepSpec spec = SweepSpec::parse(
      "engine=island pop=20 islands=6\n"
      "topology={ring,grid,full}  # axis comment\n"
      "interval={5,20}\n"
      "@instances=ta001,ta002\n"
      "@reps=3 @seed=99 @generations=40 @reference=1278\n");
  EXPECT_EQ(spec.base, "engine=island pop=20 islands=6");
  ASSERT_EQ(spec.axes.size(), 2u);
  EXPECT_EQ(spec.axes[0].label, "topology");
  EXPECT_EQ(spec.axes[0].values,
            (std::vector<std::string>{"ring", "grid", "full"}));
  EXPECT_FALSE(spec.axes[0].grouped);
  EXPECT_EQ(spec.axes[1].label, "interval");
  EXPECT_EQ(spec.instances, (std::vector<std::string>{"ta001", "ta002"}));
  EXPECT_EQ(spec.reps, 3);
  EXPECT_EQ(spec.seed, 99u);
  EXPECT_EQ(spec.stop.max_generations, 40);
  EXPECT_DOUBLE_EQ(spec.reference, 1278.0);
  EXPECT_EQ(spec.configs(), 6);
}

TEST(SweepSpec, GroupAxisZipsKeys) {
  const SweepSpec spec = SweepSpec::parse(
      "engine=island {islands=2 pop=60,islands=3 pop=40,islands=4 pop=30}");
  ASSERT_EQ(spec.axes.size(), 1u);
  EXPECT_TRUE(spec.axes[0].grouped);
  EXPECT_EQ(spec.axes[0].label, "islands+pop");
  EXPECT_EQ(spec.axes[0].values.size(), 3u);
  EXPECT_EQ(spec.axes[0].token(1), "islands=3 pop=40");
}

TEST(SweepSpec, NonGenerationBudgetsLiftTheGenerationCap) {
  const SweepSpec spec = SweepSpec::parse("engine=simple @evals=5000");
  EXPECT_EQ(spec.stop.max_generations, std::numeric_limits<int>::max());
  EXPECT_EQ(spec.stop.max_evaluations, 5000);
  // Default when nothing is set: the shared 100-generation default.
  EXPECT_EQ(SweepSpec::parse("engine=simple").stop.max_generations, 100);
}

TEST(SweepSpec, RejectsMalformedGrids) {
  EXPECT_THROW(SweepSpec::parse("topology={ring"), std::invalid_argument);
  EXPECT_THROW(SweepSpec::parse("topology=ring}"), std::invalid_argument);
  EXPECT_THROW(SweepSpec::parse("topology={}"), std::invalid_argument);
  EXPECT_THROW(SweepSpec::parse("topology={a,,b}"), std::invalid_argument);
  EXPECT_THROW(SweepSpec::parse("@bogus=1"), std::invalid_argument);
  EXPECT_THROW(SweepSpec::parse("@reps=0"), std::invalid_argument);
  EXPECT_THROW(SweepSpec::parse("@reps=abc"), std::invalid_argument);
  EXPECT_THROW(SweepSpec::parse("@seed=-1"), std::invalid_argument);
  EXPECT_THROW(SweepSpec::parse("loneword"), std::invalid_argument);
  EXPECT_THROW(SweepSpec::parse("{ring,grid}"), std::invalid_argument);
  try {
    SweepSpec::parse("engine=island topology={ring");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("topology={ring"),
              std::string::npos);
  }
}

TEST(SweepSpec, CommentsWorkInsideGroupAxes) {
  const SweepSpec spec = SweepSpec::parse(
      "engine=island {islands=2 pop=60, # fixed total 120\n"
      "islands=4 pop=30}");
  ASSERT_EQ(spec.axes.size(), 1u);
  EXPECT_EQ(spec.axes[0].values,
            (std::vector<std::string>{"islands=2 pop=60", "islands=4 pop=30"}));
}

TEST(SweepSpec, ExpandRejectsNonPositiveReps) {
  SweepSpec spec = SweepSpec::parse("engine=simple @instances=ta001");
  spec.reps = 0;  // CLI --reps override path bypasses parse() validation
  EXPECT_THROW(spec.expand(), std::invalid_argument);
}

TEST(SweepSpec, ParseFileSplitsSections) {
  const std::vector<SweepSpec> sweeps = SweepSpec::parse_file(
      "# leading comment\n"
      "engine=simple pop=10\n"
      "[alpha]\n"
      "engine=island islands=2\n"
      "topology={ring,full}\n"
      "[beta]\n"
      "engine=cellular width=4 height=4\n");
  ASSERT_EQ(sweeps.size(), 3u);
  EXPECT_EQ(sweeps[0].name, "sweep");
  EXPECT_EQ(sweeps[0].base, "engine=simple pop=10");
  EXPECT_EQ(sweeps[1].name, "alpha");
  EXPECT_EQ(sweeps[1].axes.size(), 1u);
  EXPECT_EQ(sweeps[2].name, "beta");
}

TEST(SweepSpec, StudyFileStaysInSyncWithEmbeddedExample) {
  // examples/parameter_study.cpp embeds the same sections as
  // sweeps/parameter_study.sweep so `psga_sweep` reproduces its tables;
  // this pins the two down against drifting apart. Repo root derives
  // from the compiled-in data directory.
  const std::string root =
      std::string(PSGA_DATA_DIR).substr(0, std::string(PSGA_DATA_DIR).rfind("data"));
  auto slurp = [](const std::string& path) {
    std::ifstream file(path);
    EXPECT_TRUE(file.good()) << path;
    std::ostringstream text;
    text << file.rdbuf();
    return text.str();
  };
  const std::string sweep_file = slurp(root + "sweeps/parameter_study.sweep");
  const std::string example_src = slurp(root + "examples/parameter_study.cpp");
  // The example's one raw string literal holds its embedded study spec.
  const std::size_t begin = example_src.find("R\"(");
  const std::size_t end = example_src.find(")\"", begin);
  ASSERT_NE(begin, std::string::npos);
  ASSERT_NE(end, std::string::npos);
  const std::string embedded =
      example_src.substr(begin + 3, end - begin - 3);
  const std::vector<SweepSpec> from_file = SweepSpec::parse_file(sweep_file);
  const std::vector<SweepSpec> from_example = SweepSpec::parse_file(embedded);
  ASSERT_EQ(from_file.size(), from_example.size());
  for (std::size_t i = 0; i < from_file.size(); ++i) {
    EXPECT_EQ(from_file[i], from_example[i]) << from_file[i].name;
  }
}

// --- expansion & seeds ------------------------------------------------------

TEST(SweepExpand, CrossProductOrderFirstAxisSlowest) {
  SweepSpec spec = SweepSpec::parse(
      "engine=island topology={ring,full} interval={1,5,9} @reps=2");
  spec.instances = {"instA", "instB"};
  const std::vector<SweepCell> cells = spec.expand();
  // 2 topologies x 3 intervals x 2 instances x 2 reps.
  ASSERT_EQ(cells.size(), 24u);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(cells[i].index, static_cast<int>(i));
  }
  // First axis (topology) varies slowest; instances then reps innermost.
  EXPECT_EQ(cells[0].axis_values,
            (std::vector<std::string>{"ring", "1"}));
  EXPECT_EQ(cells[0].instance, "instA");
  EXPECT_EQ(cells[0].rep, 0);
  EXPECT_EQ(cells[1].rep, 1);
  EXPECT_EQ(cells[2].instance, "instB");
  EXPECT_EQ(cells[4].axis_values,
            (std::vector<std::string>{"ring", "5"}));
  EXPECT_EQ(cells[12].axis_values,
            (std::vector<std::string>{"full", "1"}));
  // The cell spec carries base + axis tokens + the derived seed.
  EXPECT_EQ(cells[0].spec,
            "engine=island topology=ring interval=1 seed=" +
                std::to_string(cells[0].seed));
}

TEST(SweepExpand, SeedsAreDeterministicAndDistinct) {
  const SweepSpec spec = SweepSpec::parse(
      "engine=simple pop={10,20} @reps=3 @seed=7");
  const std::vector<SweepCell> a = spec.expand();
  const std::vector<SweepCell> b = spec.expand();
  ASSERT_EQ(a.size(), 6u);
  std::set<std::uint64_t> seeds;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].seed, b[i].seed);  // pure function of the spec
    EXPECT_EQ(a[i].seed, derive_seed(7, static_cast<std::uint64_t>(i),
                                     static_cast<std::uint64_t>(a[i].rep)));
    seeds.insert(a[i].seed);
  }
  EXPECT_EQ(seeds.size(), a.size());
  // Changing the sweep seed moves every cell seed.
  SweepSpec reseeded = spec;
  reseeded.seed = 8;
  EXPECT_NE(reseeded.expand()[0].seed, a[0].seed);
}

TEST(SweepExpand, CrnPairsConfigurationsOnOneSeedSeries) {
  const char* grid =
      "engine=island topology={ring,full} @instances=ta001,ta002 @reps=2 "
      "@seed=3 @crn=on";
  const std::vector<SweepCell> cells = SweepSpec::parse(grid).expand();
  ASSERT_EQ(cells.size(), 8u);
  for (const SweepCell& cell : cells) {
    // Same (instance, rep) -> same seed in every configuration.
    EXPECT_EQ(cell.seed, cells[static_cast<std::size_t>(
                                   cell.instance_index * 2 + cell.rep)]
                             .seed);
  }
  // Distinct (instance, rep) pairs still get distinct seeds.
  std::set<std::uint64_t> series;
  for (int i = 0; i < 4; ++i) series.insert(cells[static_cast<std::size_t>(i)].seed);
  EXPECT_EQ(series.size(), 4u);
  // Default (no @crn) keeps every cell independent.
  SweepSpec independent = SweepSpec::parse(grid);
  independent.crn = false;
  const std::vector<SweepCell> plain = independent.expand();
  EXPECT_NE(plain[0].seed, plain[4].seed);
}

TEST(SweepExpand, DerivedSeedOverridesBaseSeedToken) {
  const SweepSpec spec =
      SweepSpec::parse("engine=simple seed=123 pop=10 @seed=9");
  const SweepCell cell = spec.expand()[0];
  // SolverSpec::parse applies tokens left to right, so the trailing
  // derived seed wins over the fixed seed=123.
  EXPECT_EQ(ga::SolverSpec::parse(cell.spec).seed, cell.seed);
}

TEST(SweepExpand, GlobExpandsAndSorts) {
  SweepSpec spec = SweepSpec::parse("engine=simple");
  spec.instances = {data_path("ta00*.fsp")};
  const std::vector<std::string> instances = spec.expand_instances();
  ASSERT_EQ(instances.size(), 9u);  // ta001..ta009 (ta010 has a 1)
  EXPECT_EQ(instances.front(), data_path("ta001.fsp"));
  EXPECT_EQ(instances.back(), data_path("ta009.fsp"));
  spec.instances = {data_path("nope*.fsp")};
  EXPECT_THROW(spec.expand(), std::invalid_argument);
}

// --- runner -----------------------------------------------------------------

SweepSpec tiny_island_sweep() {
  SweepSpec spec = SweepSpec::parse(
      "engine=island islands=2 pop=8\n"
      "topology={ring,full}\n"
      "interval={1,3}\n"
      "@instances=ta001,ta002 @reps=2 @generations=4 @seed=11");
  return spec;
}

TEST(SweepRunner, RunsTheGridAndAggregates) {
  const SweepResult result = run_sweep(tiny_island_sweep());
  ASSERT_EQ(result.cells.size(), 16u);  // 4 configs x 2 instances x 2 reps
  EXPECT_EQ(result.failed, 0);
  for (const CellResult& cell : result.cells) {
    ASSERT_TRUE(cell.ok) << cell.error;
    EXPECT_GT(cell.result.best_objective, 0.0);
    EXPECT_EQ(cell.result.generations, 4);
  }
  const SweepSummary summary = summarize(result);
  ASSERT_EQ(summary.groups.size(), 8u);  // 4 configs x 2 instances
  for (const GroupSummary& group : summary.groups) {
    EXPECT_EQ(group.best_objectives.size(), 2u);
    EXPECT_GE(group.mean, group.best);
  }
  const stats::Table table = summary_table(result.spec, summary);
  EXPECT_NE(table.to_string().find("topology"), std::string::npos);
}

TEST(SweepRunner, ParallelSweepBitIdenticalToSerial) {
  SweepOptions serial;
  serial.threads = 1;
  const SweepResult a = run_sweep(tiny_island_sweep(), serial);
  SweepOptions parallel;
  parallel.threads = 4;
  const SweepResult b = run_sweep(tiny_island_sweep(), parallel);
  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    ASSERT_EQ(a.cells[i].ok, b.cells[i].ok);
    EXPECT_EQ(a.cells[i].cell.seed, b.cells[i].cell.seed);
    EXPECT_EQ(a.cells[i].result.best_objective,
              b.cells[i].result.best_objective)
        << "cell " << i << " diverged between serial and parallel sweeps";
    EXPECT_EQ(a.cells[i].result.evaluations, b.cells[i].result.evaluations);
    EXPECT_EQ(a.cells[i].result.history, b.cells[i].result.history);
  }
  // The rendered summary tables are byte-identical.
  EXPECT_EQ(summary_table(a.spec, summarize(a)).to_string(),
            summary_table(b.spec, summarize(b)).to_string());
}

TEST(SweepRunner, CustomResolverAndProgress) {
  SweepSpec spec = SweepSpec::parse(
      "engine=simple pop=10 @instances=generated @reps=2 @generations=3");
  SweepOptions options;
  const auto instance = sched::make_taillard(sched::taillard_20x5()[0]);
  options.resolve = [&](const std::string& name) -> ga::ProblemPtr {
    EXPECT_EQ(name, "generated");
    return std::make_shared<ga::FlowShopProblem>(instance);
  };
  int calls = 0;
  options.progress = [&](const CellResult& cell, int done, int total) {
    EXPECT_TRUE(cell.ok);
    EXPECT_EQ(total, 2);
    EXPECT_EQ(done, ++calls);
  };
  const SweepResult result = run_sweep(std::move(spec), options);
  EXPECT_EQ(result.failed, 0);
  EXPECT_EQ(calls, 2);
}

// --- fail-soft --------------------------------------------------------------

TEST(SweepRunner, MalformedCellSpecIsCapturedNotFatal) {
  // engine axis includes an unregistered engine and a malformed token
  // value: those cells fail, the others complete.
  SweepSpec spec = SweepSpec::parse(
      "pop=8 {engine=simple,engine=warp-drive,engine=simple pop=oops}\n"
      "@instances=ta001 @reps=2 @generations=3");
  std::ostringstream telemetry;
  TelemetrySink sink(telemetry);
  SweepOptions options;
  options.telemetry = &sink;
  const SweepResult result = run_sweep(spec, options);
  ASSERT_EQ(result.cells.size(), 6u);
  EXPECT_EQ(result.failed, 4);
  EXPECT_TRUE(result.cells[0].ok);
  EXPECT_TRUE(result.cells[1].ok);
  EXPECT_FALSE(result.cells[2].ok);
  EXPECT_NE(result.cells[2].error.find("warp-drive"), std::string::npos);
  EXPECT_FALSE(result.cells[4].ok);
  EXPECT_NE(result.cells[4].error.find("oops"), std::string::npos);
  // The telemetry records the structured error.
  int error_records = 0;
  std::istringstream lines(telemetry.str());
  std::string line;
  while (std::getline(lines, line)) {
    const Json record = Json::parse(line);
    if (record.string_or("event", "") == "cell" &&
        !record.find("ok")->as_bool()) {
      ++error_records;
      EXPECT_FALSE(record.string_or("error", "").empty());
    }
  }
  EXPECT_EQ(error_records, 4);
  // The summary still renders, with a failed column.
  const stats::Table table = summary_table(result.spec, summarize(result));
  EXPECT_NE(table.to_string().find("failed"), std::string::npos);
}

TEST(SweepRunner, RemovedEvalCacheFormsFailTheirCellsOnly) {
  // The removed cache forms fail their own cells, naming the token; the
  // off and lru cells of the same sweep still run.
  const char* removed[] = {"eval_cache=unbounded", "eval_cache=unbounded:8",
                           "eval_cache=lru:4096:16"};
  SweepSpec spec = SweepSpec::parse(
      std::string("engine=simple pop=8 {eval_cache=off,") + removed[0] + "," +
      removed[1] + "," + removed[2] +
      ",eval_cache=lru:64}\n@instances=ta001 @reps=1 @generations=2");
  const SweepResult result = run_sweep(spec);
  ASSERT_EQ(result.cells.size(), 5u);
  EXPECT_EQ(result.failed, 3);
  EXPECT_TRUE(result.cells[0].ok);
  EXPECT_TRUE(result.cells[4].ok);
  for (std::size_t i = 0; i < 3; ++i) {
    SCOPED_TRACE(removed[i]);
    EXPECT_FALSE(result.cells[i + 1].ok);
    EXPECT_NE(result.cells[i + 1].error.find(removed[i]), std::string::npos)
        << result.cells[i + 1].error;
  }
}

TEST(SweepRunner, MissingInstanceFileIsCapturedNotFatal) {
  SweepSpec spec = SweepSpec::parse("engine=simple pop=8 @generations=2");
  spec.instances = {data_path("ta001.fsp"), data_path("missing.fsp")};
  const SweepResult result = run_sweep(spec);
  ASSERT_EQ(result.cells.size(), 2u);
  EXPECT_TRUE(result.cells[0].ok);
  EXPECT_FALSE(result.cells[1].ok);
  EXPECT_FALSE(result.cells[1].error.empty());
  EXPECT_EQ(result.failed, 1);
}

// --- problem-side tokens ----------------------------------------------------

TEST(SweepRunner, MultiFamilySweepSpansProblems) {
  // One grid over two problem families: the zipped axis moves the
  // problem and its instance together, all through ProblemSpec.
  SweepSpec spec = SweepSpec::parse(
      "engine=simple pop=8\n"
      "{problem=flowshop instance=ta001,problem=jobshop instance=ft06}\n"
      "@reps=1 @generations=2");
  std::ostringstream telemetry;
  TelemetrySink sink(telemetry);
  SweepOptions options;
  options.telemetry = &sink;
  const SweepResult result = run_sweep(spec, options);
  ASSERT_EQ(result.cells.size(), 2u);
  EXPECT_EQ(result.failed, 0);
  // The canonical problem spec lands in the RunResult for provenance...
  EXPECT_EQ(result.cells[0].result.problem,
            "problem=flowshop instance=ta001");
  EXPECT_EQ(result.cells[1].result.problem, "problem=jobshop instance=ft06");
  // ...and in every cell telemetry record.
  int cell_records = 0;
  std::istringstream lines(telemetry.str());
  std::string line;
  while (std::getline(lines, line)) {
    const Json record = Json::parse(line);
    if (record.string_or("event", "") == "cell") {
      ++cell_records;
      EXPECT_FALSE(record.string_or("problem", "").empty());
    }
  }
  EXPECT_EQ(cell_records, 2);
}

TEST(SweepRunner, UnresolvableInstanceErrorCarriesCanonicalSpec) {
  SweepSpec spec = SweepSpec::parse(
      "engine=simple pop=8 @instances=nope.xyz @generations=2");
  const SweepResult result = run_sweep(spec);
  ASSERT_EQ(result.cells.size(), 1u);
  EXPECT_FALSE(result.cells[0].ok);
  EXPECT_NE(result.cells[0].error.find(
                "[problem spec: problem=flowshop instance=nope.xyz]"),
            std::string::npos)
      << result.cells[0].error;
}

TEST(SweepRunner, InstanceTokenConflictingWithAtInstancesFailsSoft) {
  SweepSpec spec = SweepSpec::parse(
      "engine=simple pop=8 instance=ta001 @instances=ta002 @generations=2");
  const SweepResult result = run_sweep(spec);
  ASSERT_EQ(result.cells.size(), 1u);
  EXPECT_FALSE(result.cells[0].ok);
  EXPECT_NE(result.cells[0].error.find("conflicts"), std::string::npos);
}

TEST(SweepRunner, GenInstanceTokenRunsWithoutResolver) {
  SweepSpec spec = SweepSpec::parse(
      "engine=simple pop=8 problem=openshop "
      "instance=gen:jobs=4,machines=3,seed=2 @reps=2 @generations=2");
  const SweepResult result = run_sweep(spec);
  ASSERT_EQ(result.cells.size(), 2u);
  EXPECT_EQ(result.failed, 0);
  // Both reps share one resolved problem (same canonical spec).
  EXPECT_EQ(result.cells[0].result.problem, result.cells[1].result.problem);
}

TEST(SweepRunner, ProblemTokensUnderCustomResolverFailLoudly) {
  // A custom resolver owns instance semantics; a problem-side axis would
  // otherwise vary nothing while the summary reports it varying.
  SweepSpec spec = SweepSpec::parse(
      "engine=simple pop=8 criterion={makespan,total-flow} "
      "@instances=generated @generations=2");
  SweepOptions options;
  const auto instance = sched::make_taillard(sched::taillard_20x5()[0]);
  options.resolve = [&](const std::string&) -> ga::ProblemPtr {
    return ga::make_problem(instance);
  };
  const SweepResult result = run_sweep(spec, options);
  ASSERT_EQ(result.cells.size(), 2u);
  EXPECT_EQ(result.failed, 2);
  EXPECT_NE(result.cells[0].error.find("do not apply under a custom resolver"),
            std::string::npos)
      << result.cells[0].error;
}

TEST(SweepRunner, DefaultResolverRoutesThroughProblemRegistry) {
  EXPECT_NE(default_resolver("ta001"), nullptr);
  EXPECT_NE(default_resolver(data_path("ta001.fsp")), nullptr);
  EXPECT_NE(default_resolver("ft06"), nullptr);  // classics resolve by name
  EXPECT_THROW(default_resolver("mystery"), std::invalid_argument);
  EXPECT_THROW(default_resolver(""), std::invalid_argument);
}

// --- telemetry --------------------------------------------------------------

TEST(Telemetry, JsonlRoundTripsCellRecords) {
  SweepSpec spec = SweepSpec::parse(
      "engine=island islands=2 pop=8 eval_cache=lru:65536\n"
      "topology={ring,full}\n"
      "@instances=ta001 @reps=2 @generations=3 @seed=5");
  std::ostringstream telemetry;
  TelemetrySink sink(telemetry);
  SweepOptions options;
  options.telemetry = &sink;
  const SweepResult result = run_sweep(spec, options);
  ASSERT_EQ(result.failed, 0);

  int cell_records = 0;
  int generation_records = 0;
  int sweep_begin = 0;
  int sweep_end = 0;
  std::istringstream lines(telemetry.str());
  std::string line;
  while (std::getline(lines, line)) {
    const Json record = Json::parse(line);  // every line parses
    const std::string event = record.string_or("event", "");
    if (event == "sweep_begin") {
      ++sweep_begin;
      EXPECT_EQ(record.number_or("cells", 0), 4);
      EXPECT_EQ(record.find("axes")->items().size(), 1u);
    } else if (event == "generation") {
      ++generation_records;
    } else if (event == "sweep_end") {
      ++sweep_end;
      EXPECT_EQ(record.number_or("failed", -1), 0);
    } else if (event == "cell") {
      ++cell_records;
      const int index = static_cast<int>(record.number_or("cell", -1));
      ASSERT_GE(index, 0);
      const CellResult& expected =
          result.cells[static_cast<std::size_t>(index)];
      // Exact round-trip: u64 seed, double objective, counters.
      EXPECT_EQ(record.find("seed")->as_u64(), expected.cell.seed);
      EXPECT_EQ(record.number_or("best_objective", -1),
                expected.result.best_objective);
      EXPECT_EQ(record.number_or("evaluations", -1),
                static_cast<double>(expected.result.evaluations));
      EXPECT_EQ(record.string_or("spec", ""), expected.cell.spec);
      EXPECT_EQ(record.find("axes")->string_or("topology", ""),
                expected.cell.axis_values[0]);
      ASSERT_NE(record.find("cache"), nullptr);
      EXPECT_EQ(record.find("cache")->number_or("hits", -1),
                static_cast<double>(expected.result.cache->hits));
    }
  }
  EXPECT_EQ(sweep_begin, 1);
  EXPECT_EQ(sweep_end, 1);
  EXPECT_EQ(cell_records, 4);
  // init + 3 generations per cell, stride 1.
  EXPECT_EQ(generation_records, 4 * 4);
}

TEST(Telemetry, EveryZeroSuppressesGenerationStream) {
  SweepSpec spec = SweepSpec::parse(
      "engine=simple pop=8 @instances=ta001 @generations=3");
  std::ostringstream telemetry;
  TelemetrySink sink(telemetry);
  SweepOptions options;
  options.telemetry = &sink;
  options.telemetry_every = 0;
  run_sweep(spec, options);
  std::istringstream lines(telemetry.str());
  std::string line;
  while (std::getline(lines, line)) {
    EXPECT_NE(Json::parse(line).string_or("event", ""), "generation");
  }
}

// --- aggregation ------------------------------------------------------------

TEST(Aggregate, ComputesStatsAndRpd) {
  SweepSpec spec = SweepSpec::parse("engine=simple x={a,b} @reps=2");
  spec.reference = 100.0;
  SweepResult result;
  result.spec = spec;
  const std::vector<SweepCell> cells = [&] {
    SweepSpec layout = spec;
    layout.base = "";  // layout only; results are injected below
    return layout.expand();
  }();
  for (std::size_t i = 0; i < cells.size(); ++i) {
    CellResult cell;
    cell.cell = cells[i];
    cell.ok = true;
    cell.result.best_objective = 110.0 + 10.0 * static_cast<double>(i);
    cell.result.evaluations = 100;
    cell.result.history = {120.0, cell.result.best_objective};
    result.cells.push_back(std::move(cell));
  }
  const SweepSummary summary = summarize(result);
  ASSERT_EQ(summary.groups.size(), 2u);
  EXPECT_DOUBLE_EQ(summary.groups[0].best, 110.0);
  EXPECT_DOUBLE_EQ(summary.groups[0].mean, 115.0);
  EXPECT_DOUBLE_EQ(summary.groups[0].mean_rpd, 15.0);  // (10% + 20%) / 2
  EXPECT_DOUBLE_EQ(summary.groups[1].mean, 135.0);
  ASSERT_EQ(summary.groups[0].mean_history.size(), 2u);
  EXPECT_DOUBLE_EQ(summary.groups[0].mean_history[0], 120.0);
  EXPECT_DOUBLE_EQ(summary.groups[0].mean_history[1], 115.0);
}

// --- non-finite JSON --------------------------------------------------------

TEST(Json, NonFiniteDoublesRoundTripAsSentinels) {
  const double inf = std::numeric_limits<double>::infinity();
  // Non-finite doubles serialize as sentinel strings, not null: a
  // target=inf budget or a NaN objective must survive telemetry.
  EXPECT_EQ(Json::number(inf).dump(), "\"inf\"");
  EXPECT_EQ(Json::number(-inf).dump(), "\"-inf\"");
  EXPECT_EQ(Json::number(std::nan("")).dump(), "\"nan\"");
  const Json pos = Json::parse("\"inf\"");
  EXPECT_EQ(pos.kind(), Json::Kind::kNumber);
  EXPECT_EQ(pos.as_number(), inf);
  EXPECT_EQ(Json::parse("\"-inf\"").as_number(), -inf);
  EXPECT_TRUE(std::isnan(Json::parse("\"nan\"").as_number()));
  // Full object round trip through dump + parse.
  const Json record = Json::parse(Json::object()
                                      .set("hi", Json::number(inf))
                                      .set("lo", Json::number(-inf))
                                      .set("bad", Json::number(std::nan("")))
                                      .dump());
  EXPECT_EQ(record.number_or("hi", 0.0), inf);
  EXPECT_EQ(record.number_or("lo", 0.0), -inf);
  EXPECT_TRUE(std::isnan(record.number_or("bad", 0.0)));
  // Ordinary strings are untouched (only the exact sentinels promote).
  EXPECT_EQ(Json::parse("\"infinity\"").as_string(), "infinity");
  EXPECT_EQ(Json::parse("\"NaN\"").as_string(), "NaN");
}

// --- gen: brace expansion ---------------------------------------------------

TEST(SweepSpec, GenBraceExpansionCrossProduct) {
  const SweepSpec spec = SweepSpec::parse(
      "engine=simple pop=8\n"
      "instance=gen:jobs={10,20},machines={3,5},seed=1\n");
  ASSERT_EQ(spec.axes.size(), 1u);
  const SweepAxis& axis = spec.axes[0];
  EXPECT_TRUE(axis.grouped);
  EXPECT_EQ(axis.label, "jobs+machines");
  ASSERT_EQ(axis.values.size(), 4u);
  // First group varies slowest, like every other axis cross-product.
  EXPECT_EQ(axis.values[0], "instance=gen:jobs=10,machines=3,seed=1");
  EXPECT_EQ(axis.values[1], "instance=gen:jobs=10,machines=5,seed=1");
  EXPECT_EQ(axis.values[2], "instance=gen:jobs=20,machines=3,seed=1");
  EXPECT_EQ(axis.values[3], "instance=gen:jobs=20,machines=5,seed=1");
  // Display values are the compact picks, not the full token.
  ASSERT_EQ(axis.display.size(), 4u);
  EXPECT_EQ(axis.value_label(0), "10/3");
  EXPECT_EQ(axis.value_label(3), "20/5");
  // The expansion runs through the ordinary grid machinery.
  const std::vector<SweepCell> cells = spec.expand();
  ASSERT_EQ(cells.size(), 4u);
  EXPECT_EQ(cells[0].spec, "engine=simple pop=8 "
                           "instance=gen:jobs=10,machines=3,seed=1 seed=" +
                               std::to_string(cells[0].seed));
}

TEST(SweepSpec, GenBraceExpansionSingleGroup) {
  const SweepSpec spec =
      SweepSpec::parse("engine=simple instance=gen:jobs={20,50,100},seed=7");
  ASSERT_EQ(spec.axes.size(), 1u);
  EXPECT_EQ(spec.axes[0].label, "jobs");
  EXPECT_EQ(spec.axes[0].display,
            (std::vector<std::string>{"20", "50", "100"}));
  EXPECT_EQ(spec.axes[0].values[2], "instance=gen:jobs=100,seed=7");
}

TEST(SweepSpec, GenBraceExpansionCellsSolve) {
  const SweepSpec spec = SweepSpec::parse(
      "engine=simple pop=8 problem=openshop\n"
      "instance=gen:jobs={3,4},machines=3,seed=2\n"
      "@reps=1 @generations=2");
  const SweepResult result = run_sweep(spec);
  ASSERT_EQ(result.cells.size(), 2u);
  EXPECT_EQ(result.failed, 0);
  EXPECT_NE(result.cells[0].result.problem, result.cells[1].result.problem);
}

TEST(SweepSpec, GenBraceExpansionRejectsMalformed) {
  // Unbalanced and nested braces fail loudly, naming the token.
  EXPECT_THROW(SweepSpec::parse("instance=gen:jobs={10,20"),
               std::invalid_argument);
  EXPECT_THROW(SweepSpec::parse("instance=gen:jobs={1{0,2}0}"),
               std::invalid_argument);
  // A brace group must be a gen: subkey's value.
  EXPECT_THROW(SweepSpec::parse("instance=gen:{10,20}"),
               std::invalid_argument);
  // Braces past the first '=' in a non-gen: value are not an axis.
  try {
    SweepSpec::parse("engine=simple decoder=x{a,b}");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("gen:"), std::string::npos)
        << e.what();
  }
}

// --- cell hashes ------------------------------------------------------------

TEST(SweepCellHash, StableDistinctAndHex) {
  const std::vector<SweepCell> cells = tiny_island_sweep().expand();
  std::set<std::string> hashes;
  for (const SweepCell& cell : cells) {
    const std::string hex = sweep_cell_hash_hex("sweep", cell);
    // Pure function of (sweep, spec, instance, rep, seed).
    EXPECT_EQ(hex, sweep_cell_hash_hex("sweep", cell));
    EXPECT_EQ(hex.size(), 16u);
    EXPECT_EQ(hex.find_first_not_of("0123456789abcdef"), std::string::npos);
    // The sweep name participates: the same cell in a differently named
    // sweep must not be mistaken for finished on resume.
    EXPECT_NE(hex, sweep_cell_hash_hex("other", cell));
    hashes.insert(hex);
  }
  EXPECT_EQ(hashes.size(), cells.size());
  // Rep and seed each move the hash even with an identical spec string.
  SweepCell moved = cells[0];
  moved.rep = cells[0].rep + 1;
  EXPECT_NE(sweep_cell_hash_hex("sweep", moved),
            sweep_cell_hash_hex("sweep", cells[0]));
  moved = cells[0];
  moved.seed ^= 1;
  EXPECT_NE(sweep_cell_hash_hex("sweep", moved),
            sweep_cell_hash_hex("sweep", cells[0]));
}

// --- resume -----------------------------------------------------------------

/// Normalized cell records keyed by hash, `seconds` (the only
/// wall-clock field) stripped. Unparsable lines are skipped like every
/// telemetry consumer does.
std::map<std::string, std::string> cell_records_sans_seconds(
    const std::string& jsonl) {
  std::map<std::string, std::string> out;
  std::istringstream lines(jsonl);
  std::string line;
  while (std::getline(lines, line)) {
    Json record;
    try {
      record = Json::parse(line);
    } catch (const std::exception&) {
      continue;
    }
    if (record.string_or("event", "") != "cell") continue;
    Json normalized = Json::object();
    for (const Json::Member& member : record.members()) {
      if (member.first != "seconds") {
        normalized.set(member.first, member.second);
      }
    }
    out[record.string_or("hash", "")] = normalized.dump();
  }
  return out;
}

/// `jsonl` truncated right after its `keep`-th cell record, plus the
/// partial line a SIGKILL mid-write leaves behind.
std::string truncate_after_cells(const std::string& jsonl, int keep) {
  std::istringstream lines(jsonl);
  std::string line;
  std::string out;
  int cells = 0;
  while (cells < keep && std::getline(lines, line)) {
    out += line;
    out += '\n';
    if (Json::parse(line).string_or("event", "") == "cell") ++cells;
  }
  out += "{\"schema_version\":1,\"event\":\"cell\",\"hash\":\"dead";
  return out;
}

TEST(SweepResume, ScanSkipsGarbageAndKeysByHash) {
  std::istringstream in(
      "{\"event\":\"sweep_begin\",\"sweep\":\"s\"}\n"
      "{\"event\":\"cell\",\"hash\":\"00000000000000aa\",\"ok\":true}\n"
      "not json at all\n"
      "{\"event\":\"cell\",\"ok\":true}\n"  // no hash: pre-hash telemetry
      "{\"event\":\"cell\",\"hash\":\"00000000000000bb\",\"ok\":false,"
      "\"error\":\"x\"}\n"
      "{\"event\":\"cell\",\"hash\":\"trunc");
  const FinishedCells finished = scan_finished_cells(in);
  ASSERT_EQ(finished.size(), 2u);
  EXPECT_TRUE(finished.count("00000000000000aa"));
  // Failed cells count as finished: their failure is deterministic.
  EXPECT_TRUE(finished.count("00000000000000bb"));
}

TEST(SweepResume, ResumedRunMatchesUninterrupted) {
  // The uninterrupted baseline.
  std::ostringstream full_stream;
  SweepResult full;
  {
    TelemetrySink sink(full_stream);
    SweepOptions options;
    options.telemetry = &sink;
    full = run_sweep(tiny_island_sweep(), options);
  }
  ASSERT_EQ(full.failed, 0);
  ASSERT_EQ(full.cells.size(), 16u);

  // Kill after 5 finished cells (serial run: records land in index
  // order), leaving a ragged partial line.
  const std::string truncated = truncate_after_cells(full_stream.str(), 5);
  std::istringstream scan_in(truncated);
  const FinishedCells finished = scan_finished_cells(scan_in);
  ASSERT_EQ(finished.size(), 5u);

  // Resume: skip the finished cells, append the rest.
  std::ostringstream resumed_stream;
  SweepResult resumed;
  {
    TelemetrySink sink(resumed_stream);
    SweepOptions options;
    options.telemetry = &sink;
    options.resume = &finished;
    resumed = run_sweep(tiny_island_sweep(), options);
  }
  ASSERT_EQ(resumed.cells.size(), full.cells.size());
  for (std::size_t i = 0; i < full.cells.size(); ++i) {
    EXPECT_EQ(resumed.cells[i].resumed, i < 5u) << "cell " << i;
    EXPECT_TRUE(resumed.cells[i].ok);
    EXPECT_EQ(resumed.cells[i].result.best_objective,
              full.cells[i].result.best_objective)
        << "cell " << i;
    EXPECT_EQ(resumed.cells[i].result.evaluations,
              full.cells[i].result.evaluations);
  }
  // The summary table is byte-identical to the uninterrupted run's.
  EXPECT_EQ(summary_table(full.spec, summarize(full)).to_string(),
            summary_table(resumed.spec, summarize(resumed)).to_string());
  // Resumed cells write no telemetry, so truncated + resumed unions to
  // exactly the uninterrupted file's cell records (modulo seconds).
  EXPECT_EQ(cell_records_sans_seconds(truncated + resumed_stream.str()),
            cell_records_sans_seconds(full_stream.str()));
  // And the resumed stream holds only the 11 re-run cells.
  EXPECT_EQ(cell_records_sans_seconds(resumed_stream.str()).size(), 11u);
}

/// `jsonl` with cell `index`'s record saying "evaluations": "x" — a
/// record that parses but whose fields do not read.
std::string with_unreadable_cell(const std::string& jsonl, int index) {
  std::istringstream lines(jsonl);
  std::string line;
  std::string tampered;
  while (std::getline(lines, line)) {
    const Json record = Json::parse(line);
    if (record.string_or("event", "") == "cell" &&
        record.find("cell")->as_int() == index) {
      Json bad = Json::object();
      for (const Json::Member& member : record.members()) {
        bad.set(member.first, member.first == "evaluations"
                                  ? Json::string("x")
                                  : member.second);
      }
      line = bad.dump();
    }
    tampered += line + '\n';
  }
  return tampered;
}

/// Runs tiny_island_sweep on two threads resuming from `finished` and
/// expects every cell but cell 3 resumed, and cell 3 re-run to the
/// uninterrupted result.
void expect_cell_3_rerun(const FinishedCells& finished,
                         const SweepResult& full) {
  SweepOptions options;
  options.threads = 2;
  options.resume = &finished;
  const SweepResult resumed = run_sweep(tiny_island_sweep(), options);
  ASSERT_EQ(resumed.cells.size(), full.cells.size());
  EXPECT_EQ(resumed.failed, 0);
  for (std::size_t i = 0; i < resumed.cells.size(); ++i) {
    SCOPED_TRACE("cell " + std::to_string(i));
    EXPECT_TRUE(resumed.cells[i].ok) << resumed.cells[i].error;
    EXPECT_EQ(resumed.cells[i].resumed, i != 3u);
    EXPECT_EQ(resumed.cells[i].result.evaluations,
              full.cells[i].result.evaluations);
  }
}

TEST(SweepResume, UnreadableCellRecordIsRerunOnTwoThreads) {
  std::ostringstream full_stream;
  SweepResult full;
  {
    TelemetrySink sink(full_stream);
    SweepOptions options;
    options.telemetry = &sink;
    full = run_sweep(tiny_island_sweep(), options);
  }
  ASSERT_EQ(full.failed, 0);

  // Cell 3's record says "evaluations": "x"; every other record is good.
  std::istringstream scan_in(with_unreadable_cell(full_stream.str(), 3));
  const FinishedCells finished = scan_finished_cells(scan_in);
  EXPECT_EQ(finished.size(), full.cells.size() - 1);
  expect_cell_3_rerun(finished, full);
}

TEST(SweepResume, CallerFilledUnreadableRecordIsRerunOnTwoThreads) {
  // A library caller fills SweepOptions::resume itself, so the unreadable
  // record reaches the runner: it must re-run that cell, not throw on a
  // pool lane (which terminates the process).
  std::ostringstream full_stream;
  SweepResult full;
  {
    TelemetrySink sink(full_stream);
    SweepOptions options;
    options.telemetry = &sink;
    full = run_sweep(tiny_island_sweep(), options);
  }
  ASSERT_EQ(full.failed, 0);

  FinishedCells finished;
  std::istringstream lines(with_unreadable_cell(full_stream.str(), 3));
  std::string line;
  while (std::getline(lines, line)) {
    const Json record = Json::parse(line);
    if (record.string_or("event", "") == "cell") {
      finished[record.string_or("hash", "")] = record;
    }
  }
  ASSERT_EQ(finished.size(), full.cells.size());
  expect_cell_3_rerun(finished, full);
}

// --- report rendering -------------------------------------------------------

TEST(ReportRender, ParsesTelemetryIntoCellsAndCurves) {
  SweepSpec spec = SweepSpec::parse(
      "engine=island islands=2 pop=8 eval_cache=lru:65536\n"
      "topology={ring,full}\n"
      "@instances=ta001 @reps=2 @generations=3 @seed=5 @reference=1278");
  std::ostringstream telemetry;
  {
    TelemetrySink sink(telemetry);
    SweepOptions options;
    options.telemetry = &sink;
    ASSERT_EQ(run_sweep(spec, options).failed, 0);
  }
  std::istringstream in(telemetry.str());
  const std::vector<SweepReport> reports = parse_telemetry(in);
  ASSERT_EQ(reports.size(), 1u);
  const SweepReport& report = reports[0];
  EXPECT_EQ(report.sweep, "sweep");
  EXPECT_EQ(report.declared_cells, 4);
  EXPECT_DOUBLE_EQ(report.reference, 1278.0);
  ASSERT_EQ(report.axes.size(), 1u);
  EXPECT_EQ(report.axes[0].first, "topology");
  ASSERT_EQ(report.cells.size(), 4u);
  for (const ReportCell& cell : report.cells) {
    EXPECT_TRUE(cell.ok);
    EXPECT_EQ(cell.hash.size(), 16u);
    ASSERT_TRUE(cell.cache.has_value());
    // init + 3 generations folded into the convergence curve, in order.
    ASSERT_EQ(cell.curve.size(), 4u);
    for (std::size_t i = 1; i < cell.curve.size(); ++i) {
      EXPECT_GT(cell.curve[i].first, cell.curve[i - 1].first);
      EXPECT_LE(cell.curve[i].second, cell.curve[i - 1].second);
    }
  }

  const std::string csv = render_csv(reports);
  EXPECT_NE(csv.find("# sweep sweep"), std::string::npos);
  EXPECT_NE(csv.find("sweep,cell,config,instance,rep,seed,hash,topology"),
            std::string::npos);
  EXPECT_NE(csv.find(",cache_hits,cache_misses,cache_hit_rate,"),
            std::string::npos);
  // 1 comment + 1 header + 4 cell rows.
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 6);

  const std::string html = render_html(reports);
  EXPECT_NE(html.find("<!doctype html>"), std::string::npos);
  EXPECT_NE(html.find("<svg"), std::string::npos);
  EXPECT_NE(html.find("mean RPD (%)"), std::string::npos);
  EXPECT_NE(html.find("cache hit %"), std::string::npos);
  EXPECT_NE(html.find("</html>"), std::string::npos);
  // Deterministic: rendering twice yields identical bytes.
  EXPECT_EQ(html, render_html(reports));
}

TEST(ReportRender, CsvQuotesCommaCarryingFields) {
  SweepSpec spec = SweepSpec::parse(
      "engine=simple pop=8 problem=openshop\n"
      "instance=gen:jobs={3,4},machines=3,seed=2\n"
      "@reps=1 @generations=2");
  std::ostringstream telemetry;
  {
    TelemetrySink sink(telemetry);
    SweepOptions options;
    options.telemetry = &sink;
    ASSERT_EQ(run_sweep(spec, options).failed, 0);
  }
  std::istringstream in(telemetry.str());
  const std::string csv = render_csv(parse_telemetry(in));
  // The gen: spec value contains commas, so it must be quoted.
  EXPECT_NE(csv.find("\"engine=simple pop=8 problem=openshop "
                     "instance=gen:jobs=3,machines=3,seed=2"),
            std::string::npos)
      << csv;
}

TEST(ReportRender, DuplicateCellRecordsResolveLastWins) {
  std::istringstream in(
      "{\"event\":\"sweep_begin\",\"sweep\":\"s\",\"cells\":2}\n"
      "{\"event\":\"cell\",\"cell\":0,\"hash\":\"aa\",\"ok\":true,"
      "\"best_objective\":100}\n"
      "{\"event\":\"sweep_begin\",\"sweep\":\"s\",\"cells\":2}\n"
      "{\"event\":\"cell\",\"cell\":0,\"hash\":\"aa\",\"ok\":true,"
      "\"best_objective\":90}\n"
      "{\"event\":\"cell\",\"cell\":1,\"hash\":\"bb\",\"ok\":false,"
      "\"error\":\"boom\"}\n"
      "half a line");
  const std::vector<SweepReport> reports = parse_telemetry(in);
  // The resumed file's second sweep_begin merges into one report.
  ASSERT_EQ(reports.size(), 1u);
  ASSERT_EQ(reports[0].cells.size(), 2u);
  EXPECT_DOUBLE_EQ(reports[0].cells[0].best_objective, 90.0);
  EXPECT_FALSE(reports[0].cells[1].ok);
  EXPECT_EQ(reports[0].cells[1].error, "boom");
}

TEST(ReportRender, RecordsWhoseFieldsDoNotReadAreSkipped) {
  // A string seed and a generation count beyond int are malformed lines:
  // skipped like a SIGKILL tail, never thrown or truncated.
  std::istringstream in(
      "{\"event\":\"sweep_begin\",\"sweep\":\"s\",\"cells\":3}\n"
      "{\"event\":\"cell\",\"cell\":0,\"hash\":\"aa\",\"ok\":true,"
      "\"seed\":5,\"generations\":4,\"best_objective\":100}\n"
      "{\"event\":\"cell\",\"cell\":1,\"hash\":\"bb\",\"ok\":true,"
      "\"seed\":\"x\",\"generations\":4,\"best_objective\":90}\n"
      "{\"event\":\"cell\",\"cell\":2,\"hash\":\"cc\",\"ok\":true,"
      "\"seed\":6,\"generations\":1e300,\"best_objective\":80}\n");
  const std::vector<SweepReport> reports = parse_telemetry(in);
  ASSERT_EQ(reports.size(), 1u);
  ASSERT_EQ(reports[0].cells.size(), 1u);
  const ReportCell& cell = reports[0].cells[0];
  EXPECT_EQ(cell.index, 0);
  EXPECT_EQ(cell.hash, "aa");
  EXPECT_EQ(cell.seed, 5u);
  EXPECT_EQ(cell.generations, 4);
  EXPECT_DOUBLE_EQ(cell.best_objective, 100.0);
}

}  // namespace
}  // namespace psga::exp
