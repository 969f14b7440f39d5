// The observability lockdown: lock-free counter/gauge/histogram merge
// semantics under concurrent writers (the ci.sh ASan/UBSan leg races
// scrapes against the write path), percentile math against src/stats,
// the headline determinism invariant — RunResults bit-identical with
// metrics/tracing on vs off for every engine × eval backend — plus the
// Chrome trace export, the Json bridges, the sweep-runner metrics and
// trace plumbing, and the daemon-side JobTable/stats surfaces.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/exp/json.h"
#include "src/exp/obs_json.h"
#include "src/exp/sweep_runner.h"
#include "src/exp/sweep_spec.h"
#include "src/exp/telemetry.h"
#include "src/ga/problems.h"
#include "src/ga/solver.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/par/rng.h"
#include "src/sched/taillard.h"
#include "src/stats/descriptive.h"
#include "src/svc/client.h"
#include "src/svc/job_table.h"
#include "src/svc/server.h"

namespace psga {
namespace {

using exp::Json;

// --- counters and histograms under concurrent writers -----------------------

TEST(ObsCounter, ConcurrentAddsMergeToExactTotal) {
  obs::Counter counter;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kAddsPerThread = 100'000;
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&counter] {
      for (std::uint64_t i = 0; i < kAddsPerThread; ++i) {
        counter.add(1 + (i & 1));  // alternate 1 and 2
      }
    });
  }
  for (std::thread& w : writers) w.join();
  // Each thread adds 1+2 per pair of iterations: 3/2 per add on average.
  EXPECT_EQ(counter.value(), kThreads * kAddsPerThread * 3 / 2);
}

TEST(ObsHistogram, ConcurrentRecordsMergeToExactTotals) {
  obs::Histogram histogram;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 50'000;
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&histogram, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        histogram.record(i % 97 + static_cast<std::uint64_t>(t));
      }
    });
  }
  for (std::thread& w : writers) w.join();
  const obs::HistogramSnapshot snap = histogram.snapshot();
  EXPECT_EQ(snap.count, kThreads * kPerThread);
  std::uint64_t expected_sum = 0;
  for (int t = 0; t < kThreads; ++t) {
    for (std::uint64_t i = 0; i < kPerThread; ++i) {
      expected_sum += i % 97 + static_cast<std::uint64_t>(t);
    }
  }
  EXPECT_EQ(snap.sum, expected_sum);
  std::uint64_t bucket_total = 0;
  for (const std::uint64_t b : snap.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, snap.count);
}

TEST(ObsRegistry, ScrapeDuringWriteIsSafeAndExactAfterJoin) {
  // The sanitizer leg's target: snapshot() races the relaxed write path.
  // Mid-race scrapes only need to be safe and monotonic-ish; the final
  // scrape (writers joined) must be exact.
  obs::Registry registry;
  obs::Counter& counter = registry.counter("race.counter");
  obs::Histogram& histogram = registry.histogram("race.histogram");
  registry.gauge("race.gauge").set(7);
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 200'000;
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&counter, &histogram] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        counter.add();
        histogram.record(i & 1023);
      }
    });
  }
  std::uint64_t last = 0;
  for (int scrape = 0; scrape < 200; ++scrape) {
    const obs::MetricsSnapshot snap = registry.snapshot();
    const std::uint64_t* value = snap.counter("race.counter");
    ASSERT_NE(value, nullptr);
    EXPECT_LE(*value, kThreads * kPerThread);
    last = *value;
  }
  for (std::thread& w : writers) w.join();
  (void)last;
  const obs::MetricsSnapshot final_snap = registry.snapshot();
  EXPECT_EQ(*final_snap.counter("race.counter"), kThreads * kPerThread);
  EXPECT_EQ(final_snap.histogram("race.histogram")->count,
            kThreads * kPerThread);
  EXPECT_EQ(*final_snap.gauge("race.gauge"), 7);
}

// --- histogram bucket and percentile math -----------------------------------

TEST(ObsHistogram, Log2BucketPlacement) {
  obs::Histogram histogram;
  histogram.record(0);    // bucket 0 (bit_width(0) == 0)
  histogram.record(1);    // bucket 1: [1, 2)
  histogram.record(2);    // bucket 2: [2, 4)
  histogram.record(3);    // bucket 2
  histogram.record(4);    // bucket 3: [4, 8)
  histogram.record(255);  // bucket 8: [128, 256)
  histogram.record(256);  // bucket 9: [256, 512)
  const obs::HistogramSnapshot snap = histogram.snapshot();
  EXPECT_EQ(snap.buckets[0], 1u);
  EXPECT_EQ(snap.buckets[1], 1u);
  EXPECT_EQ(snap.buckets[2], 2u);
  EXPECT_EQ(snap.buckets[3], 1u);
  EXPECT_EQ(snap.buckets[8], 1u);
  EXPECT_EQ(snap.buckets[9], 1u);
  EXPECT_EQ(snap.count, 7u);
  EXPECT_EQ(snap.sum, 0u + 1 + 2 + 3 + 4 + 255 + 256);
}

TEST(ObsHistogram, PercentileTracksStatsMedianWithinBucketResolution) {
  // Validate the interpolated p50 against the exact median from
  // src/stats: the histogram can only be off by its log2 bucket width,
  // so the estimate must land within a factor of 2 of the truth.
  par::Rng rng(2024);
  obs::Histogram histogram;
  std::vector<double> values;
  for (int i = 0; i < 10'000; ++i) {
    const std::uint64_t v = 1 + (rng() % 100'000);
    histogram.record(v);
    values.push_back(static_cast<double>(v));
  }
  const obs::HistogramSnapshot snap = histogram.snapshot();
  const double exact = stats::median(values);
  const double estimated = snap.percentile(50.0);
  EXPECT_GE(estimated, exact / 2.0);
  EXPECT_LE(estimated, exact * 2.0);
  // Percentiles are monotone in p and bracketed by the recorded range.
  double previous = 0.0;
  for (const double p : {0.0, 10.0, 50.0, 90.0, 95.0, 99.0, 100.0}) {
    const double value = snap.percentile(p);
    EXPECT_GE(value, previous) << "p" << p;
    previous = value;
  }
  EXPECT_LE(snap.percentile(100.0), 131072.0);  // 2^17 > 100000
  // Mean agrees with the exact mean (sum is tracked exactly).
  EXPECT_NEAR(snap.mean(), stats::mean(values), 1e-9);
}

TEST(ObsHistogram, SnapshotSubtractionYieldsPerRunDeltas) {
  obs::Histogram histogram;
  histogram.record(10);
  histogram.record(20);
  obs::HistogramSnapshot baseline = histogram.snapshot();
  histogram.record(40);
  obs::HistogramSnapshot lifetime = histogram.snapshot();
  lifetime -= baseline;
  EXPECT_EQ(lifetime.count, 1u);
  EXPECT_EQ(lifetime.sum, 40u);
}

// --- gauges and the kill switch ---------------------------------------------

TEST(ObsGauge, SetAndAdd) {
  obs::Gauge gauge;
  gauge.set(5);
  gauge.add(-2);
  EXPECT_EQ(gauge.value(), 3);
  gauge.set(0);
  EXPECT_EQ(gauge.value(), 0);
}

TEST(ObsKillSwitch, DisabledWritePathsAreNoOps) {
  obs::Counter counter;
  obs::Gauge gauge;
  obs::Histogram histogram;
  obs::set_enabled(false);
  counter.add(5);
  gauge.set(9);
  histogram.record(42);
  obs::set_enabled(true);
  EXPECT_EQ(counter.value(), 0u);
  EXPECT_EQ(gauge.value(), 0);
  EXPECT_EQ(histogram.snapshot().count, 0u);
  counter.add(5);
  EXPECT_EQ(counter.value(), 5u);
}

// --- MetricsSnapshot lookups and subtraction --------------------------------

TEST(ObsSnapshot, LookupsAndSubtract) {
  obs::Registry registry;
  registry.counter("a.count").add(10);
  registry.gauge("b.level").set(-3);
  registry.histogram("c.ns").record(100);
  const obs::MetricsSnapshot baseline = registry.snapshot();
  registry.counter("a.count").add(7);
  registry.histogram("c.ns").record(200);
  obs::MetricsSnapshot delta = registry.snapshot();
  delta.subtract(baseline);
  ASSERT_NE(delta.counter("a.count"), nullptr);
  EXPECT_EQ(*delta.counter("a.count"), 7u);
  ASSERT_NE(delta.gauge("b.level"), nullptr);
  EXPECT_EQ(*delta.gauge("b.level"), -3);  // gauges are levels, not deltas
  ASSERT_NE(delta.histogram("c.ns"), nullptr);
  EXPECT_EQ(delta.histogram("c.ns")->count, 1u);
  EXPECT_EQ(delta.histogram("c.ns")->sum, 200u);
  EXPECT_EQ(delta.counter("missing"), nullptr);
  EXPECT_EQ(delta.gauge("missing"), nullptr);
  EXPECT_EQ(delta.histogram("missing"), nullptr);
  delta.set_counter("zz.injected", 4);
  delta.set_counter("a.count", 9);
  EXPECT_EQ(*delta.counter("zz.injected"), 4u);
  EXPECT_EQ(*delta.counter("a.count"), 9u);
}

// --- the determinism invariant ----------------------------------------------

ga::RunResult run_observed(const std::string& text, bool obs_on,
                           bool trace_on) {
  auto problem = std::make_shared<ga::FlowShopProblem>(
      sched::taillard_flow_shop(8, 3, 4321));
  obs::set_enabled(obs_on);
  const std::string spec_text = text + (trace_on ? " trace=on" : "");
  ga::Solver solver =
      ga::Solver::build(ga::SolverSpec::parse(spec_text), std::move(problem));
  const ga::RunResult result = solver.run(ga::StopCondition::generations(4));
  obs::set_enabled(true);
  return result;
}

TEST(ObsDeterminism, RunResultsBitIdenticalObsOnVsOff) {
  // The contract the whole subsystem hangs on: observation never alters
  // an evolutionary trace. Every engine × serial/pool backend, same
  // seed, metrics+tracing fully on vs metrics disabled and no tracer —
  // the runs must be bit-identical.
  const std::vector<std::string> engines = {
      "engine=simple pop=12 seed=41",
      "engine=master-slave pop=12 seed=43",
      "engine=cellular width=4 height=3 seed=45",
      "engine=island islands=2 pop=8 seed=47 interval=2",
      "engine=islands-of-cellular islands=2 width=3 height=3 seed=49",
      "engine=quantum islands=2 pop=8 seed=51",
      "engine=memetic pop=12 seed=53 interval=2 budget=20",
      "engine=cluster ranks=2 pop=8 seed=55 interval=2 broadcast=4"};
  for (const std::string& engine : engines) {
    for (const char* eval : {" eval=serial", " eval=pool"}) {
      const std::string text = engine + eval;
      SCOPED_TRACE(text);
      const ga::RunResult on = run_observed(text, true, true);
      const ga::RunResult off = run_observed(text, false, false);
      EXPECT_EQ(on.best_objective, off.best_objective);
      EXPECT_EQ(on.best.seq, off.best.seq);
      EXPECT_EQ(on.history, off.history);
      EXPECT_EQ(on.evaluations, off.evaluations);
      EXPECT_EQ(on.generations, off.generations);
      // The observed run carries a non-empty per-run snapshot.
      ASSERT_TRUE(on.metrics.has_value());
      const std::uint64_t* decoded = on.metrics->counter("eval.decoded_genomes");
      ASSERT_NE(decoded, nullptr);
      EXPECT_GT(*decoded, 0u);
    }
  }
}

TEST(ObsDeterminism, TracedRunRecordsSpans) {
  auto problem = std::make_shared<ga::FlowShopProblem>(
      sched::taillard_flow_shop(8, 3, 4321));
  ga::Solver solver = ga::Solver::build(
      ga::SolverSpec::parse("engine=island islands=2 pop=8 seed=3 trace=on"),
      problem);
  const auto tracer = solver.engine().tracer_shared();
  ASSERT_NE(tracer, nullptr);
  solver.run(ga::StopCondition::generations(4));
  const std::vector<obs::SpanEvent> events = tracer->events();
  ASSERT_FALSE(events.empty());
  for (const obs::SpanEvent& event : events) {
    ASSERT_NE(event.name, nullptr);
  }
  // Untraced builds carry no tracer at all.
  ga::Solver untraced = ga::Solver::build(
      ga::SolverSpec::parse("engine=island islands=2 pop=8 seed=3"), problem);
  EXPECT_EQ(untraced.engine().tracer_shared(), nullptr);
  // With a cache attached, the synchronous filter stage shows up too.
  ga::Solver cached = ga::Solver::build(
      ga::SolverSpec::parse("engine=island islands=2 pop=8 seed=3 trace=on "
                            "eval_cache=lru:4096"),
      problem);
  cached.run(ga::StopCondition::generations(4));
  const std::vector<obs::SpanEvent> cached_events =
      cached.engine().tracer_shared()->events();
  EXPECT_TRUE(std::any_of(cached_events.begin(), cached_events.end(),
                          [](const obs::SpanEvent& event) {
                            return std::string(event.name) == "cache_filter";
                          }))
      << "no cache_filter span in a traced cached run";
}

TEST(ObsCache, ZeroCountersAlwaysEngagedWithoutACache) {
  const ga::RunResult result =
      run_observed("engine=simple pop=10 seed=9", true, false);
  ASSERT_TRUE(result.cache.has_value());
  EXPECT_EQ(result.cache->hits, 0);
  EXPECT_EQ(result.cache->misses, 0);
  EXPECT_EQ(result.cache->inserts, 0);
  EXPECT_EQ(result.cache->evictions, 0);
  // With a cache the counters fold into the metrics snapshot too.
  const ga::RunResult cached = run_observed(
      "engine=simple pop=10 seed=9 eval_cache=unbounded", true, false);
  ASSERT_TRUE(cached.cache.has_value());
  EXPECT_GT(cached.cache->misses, 0);
  ASSERT_TRUE(cached.metrics.has_value());
  const std::uint64_t* hits = cached.metrics->counter("eval.cache.hits");
  ASSERT_NE(hits, nullptr);
  EXPECT_EQ(*hits, static_cast<std::uint64_t>(cached.cache->hits));
}

TEST(ObsCache, CacheNsRecordsTheCacheLayerOnlyWithACache) {
  // eval.cache_ns: one sample per evaluate() call with a cache, timing the
  // filter and the inserts; an uncached run records none.
  const ga::RunResult cached = run_observed(
      "engine=simple pop=10 seed=9 eval_cache=lru:4096", true, false);
  ASSERT_TRUE(cached.metrics.has_value());
  const obs::HistogramSnapshot* cache_ns =
      cached.metrics->histogram("eval.cache_ns");
  ASSERT_NE(cache_ns, nullptr);
  EXPECT_GT(cache_ns->count, 0u);
  EXPECT_GT(cache_ns->sum, 0u);

  const ga::RunResult uncached =
      run_observed("engine=simple pop=10 seed=9", true, false);
  ASSERT_TRUE(uncached.metrics.has_value());
  const obs::HistogramSnapshot* none =
      uncached.metrics->histogram("eval.cache_ns");
  EXPECT_TRUE(none == nullptr || none->count == 0u);
}

// --- tracer buffer and Chrome export ----------------------------------------

TEST(ObsTracer, BoundedBufferDropsInsteadOfWrapping) {
  obs::Tracer tracer(4);
  for (int i = 0; i < 10; ++i) {
    obs::Span span(&tracer, "tiny");
  }
  EXPECT_EQ(tracer.events().size(), 4u);
  EXPECT_EQ(tracer.dropped(), 6u);
}

TEST(ObsTracer, NullTracerSpansAreHarmless) {
  obs::Span span(nullptr, "ignored");  // must not crash or record
  SUCCEED();
}

TEST(ObsTracer, ChromeTraceExportIsValidJson) {
  obs::Tracer tracer;
  {
    obs::Span outer(&tracer, "breed");
    obs::Span inner(&tracer, "decode");
  }
  obs::TraceProcess process;
  process.pid = 3;
  process.name = "cell 3: engine=simple";
  process.events = tracer.events();
  ASSERT_EQ(process.events.size(), 2u);

  std::ostringstream out;
  obs::write_chrome_trace(out, {process});
  const Json trace = Json::parse(out.str());
  const Json* events = trace.find("traceEvents");
  ASSERT_NE(events, nullptr);
  // One process_name metadata record plus one X event per span.
  ASSERT_EQ(events->items().size(), 3u);
  const Json& meta = events->items().front();
  EXPECT_EQ(meta.string_or("ph", ""), "M");
  EXPECT_EQ(meta.string_or("name", ""), "process_name");
  EXPECT_EQ(meta.number_or("pid", -1), 3);
  std::set<std::string> names;
  for (std::size_t i = 1; i < events->items().size(); ++i) {
    const Json& event = events->items()[i];
    EXPECT_EQ(event.string_or("ph", ""), "X");
    EXPECT_EQ(event.number_or("pid", -1), 3);
    EXPECT_GE(event.number_or("dur", -1.0), 0.0);
    EXPECT_GE(event.number_or("ts", -1.0), 0.0);
    names.insert(event.string_or("name", ""));
  }
  EXPECT_EQ(names, (std::set<std::string>{"breed", "decode"}));
}

// --- Json bridges ------------------------------------------------------------

TEST(ObsJson, PrettyDumpRoundTripsToTheCompactForm) {
  Json value = Json::object();
  value.set("name", Json::string("x\"y"))
      .set("list", Json::array().push(Json::number(1.5)).push(Json::null()))
      .set("nested", Json::object().set("deep", Json::boolean(true)))
      .set("empty_list", Json::array())
      .set("empty_obj", Json::object());
  const std::string pretty = value.dump(2);
  EXPECT_NE(pretty.find('\n'), std::string::npos);
  EXPECT_NE(pretty.find("  \"name\""), std::string::npos);
  EXPECT_EQ(Json::parse(pretty).dump(), value.dump());
  // indent <= 0 degenerates to the compact form.
  EXPECT_EQ(value.dump(0), value.dump());
}

TEST(ObsJson, MetricsSnapshotRoundTripsThroughJson) {
  obs::Registry registry;
  registry.counter("eval.decoded_genomes").add(1234);
  registry.counter("eval.cache.hits").add(0);  // zero values survive
  registry.gauge("svc.queue.depth").set(-2);
  obs::Histogram& histogram = registry.histogram("eval.decode_ns");
  histogram.record(0);
  histogram.record(100);
  histogram.record(100'000);
  const obs::MetricsSnapshot snapshot = registry.snapshot();
  const obs::MetricsSnapshot back =
      exp::metrics_from_json(exp::metrics_to_json(snapshot));
  EXPECT_EQ(back.counters, snapshot.counters);
  EXPECT_EQ(back.gauges, snapshot.gauges);
  ASSERT_EQ(back.histograms.size(), snapshot.histograms.size());
  const obs::HistogramSnapshot& original = snapshot.histograms[0].second;
  const obs::HistogramSnapshot& restored = back.histograms[0].second;
  EXPECT_EQ(back.histograms[0].first, snapshot.histograms[0].first);
  EXPECT_EQ(restored.count, original.count);
  EXPECT_EQ(restored.sum, original.sum);
  EXPECT_EQ(restored.buckets, original.buckets);
}

// --- sweep-runner plumbing ---------------------------------------------------

exp::SweepSpec tiny_sweep() {
  return exp::SweepSpec::parse(
      "engine=simple pop=8 eval_cache=unbounded\n"
      "@instances=ta001 @reps=2 @generations=3 @seed=11\n");
}

TEST(ObsSweep, TelemetryCarriesMetricsRecordsAndZeroCacheCounters) {
  std::ostringstream telemetry;
  exp::TelemetrySink sink(telemetry);
  exp::SweepOptions options;
  options.telemetry = &sink;
  options.telemetry_every = 0;
  const exp::SweepResult result =
      exp::SweepRunner(tiny_sweep(), options).run();
  ASSERT_EQ(result.failed, 0);

  int cell_records = 0;
  int metrics_records = 0;
  std::istringstream lines(telemetry.str());
  std::string line;
  while (std::getline(lines, line)) {
    const Json record = Json::parse(line);
    const std::string event = record.string_or("event", "");
    if (event == "cell") {
      ++cell_records;
      // The cache object is always present, zeros when no cache ran.
      ASSERT_NE(record.find("cache"), nullptr);
      EXPECT_GE(record.find("cache")->number_or("misses", -1), 0);
    } else if (event == "metrics") {
      ++metrics_records;
      EXPECT_GE(record.number_or("cell", -1), 0);
      EXPECT_FALSE(record.string_or("hash", "").empty());
      const Json* metrics = record.find("metrics");
      ASSERT_NE(metrics, nullptr);
      const Json* counters = metrics->find("counters");
      ASSERT_NE(counters, nullptr);
      ASSERT_NE(counters->find("eval.decoded_genomes"), nullptr);
      EXPECT_GT(counters->find("eval.decoded_genomes")->as_u64(), 0u);
    }
  }
  EXPECT_EQ(cell_records, 2);
  EXPECT_EQ(metrics_records, 2);  // one per ok cell
}

TEST(ObsSweep, TraceOverlayCollectsSpansWithoutChangingResults) {
  exp::SweepOptions plain;
  const exp::SweepResult baseline =
      exp::SweepRunner(tiny_sweep(), plain).run();
  exp::SweepOptions traced;
  traced.trace = true;
  const exp::SweepResult observed =
      exp::SweepRunner(tiny_sweep(), traced).run();
  ASSERT_EQ(baseline.cells.size(), observed.cells.size());
  for (std::size_t i = 0; i < baseline.cells.size(); ++i) {
    EXPECT_EQ(baseline.cells[i].result.best_objective,
              observed.cells[i].result.best_objective);
    EXPECT_EQ(baseline.cells[i].result.evaluations,
              observed.cells[i].result.evaluations);
    EXPECT_EQ(baseline.cells[i].result.history,
              observed.cells[i].result.history);
  }
  EXPECT_TRUE(baseline.trace.empty());
  ASSERT_EQ(observed.trace.size(), observed.cells.size());
  for (std::size_t i = 0; i < observed.trace.size(); ++i) {
    EXPECT_EQ(observed.trace[i].pid, static_cast<int>(i));  // sorted
    EXPECT_FALSE(observed.trace[i].events.empty());
    EXPECT_NE(observed.trace[i].name.find("cell"), std::string::npos);
  }
}

// --- daemon-side surfaces ----------------------------------------------------

TEST(ObsJobTable, CountsAdmissionQueueDepthAndLatencies) {
  obs::Registry registry;
  svc::JobTable table(2);
  table.set_metrics(&registry);
  const auto counter = [&registry](const char* name) {
    const obs::MetricsSnapshot snap = registry.snapshot();
    const std::uint64_t* value = snap.counter(name);
    return value == nullptr ? std::uint64_t{0} : *value;
  };
  const auto gauge = [&registry](const char* name) {
    return *registry.snapshot().gauge(name);
  };
  const auto depth = [&gauge] { return gauge("svc.queue.depth"); };
  // The retained log bytes of a terminal job, read back through the
  // watch path: every line, replayed from the start.
  const auto log_bytes = [&table](const svc::JobPtr& job) {
    std::size_t cursor = 0;
    std::vector<std::string> lines;
    std::int64_t bytes = 0;
    while (table.follow_log(job, cursor, lines)) {
      for (const std::string& line : lines) {
        bytes += static_cast<std::int64_t>(line.size());
      }
    }
    return bytes;
  };

  const ga::StopCondition stop = ga::StopCondition::generations(1);
  const svc::JobPtr first = table.submit("engine=simple", 0, stop);
  const svc::JobPtr second = table.submit("engine=simple", 0, stop);
  EXPECT_EQ(counter("svc.jobs.admitted"), 2u);
  EXPECT_EQ(depth(), 2);
  EXPECT_EQ(gauge("svc.jobs.retained"), 0);
  EXPECT_EQ(gauge("svc.jobs.log_bytes"), 0);
  EXPECT_THROW(table.submit("engine=simple", 0, stop), svc::AdmissionError);
  EXPECT_EQ(counter("svc.jobs.rejected"), 1u);

  const svc::JobPtr running = table.next_job();
  ASSERT_EQ(running, first);
  EXPECT_EQ(depth(), 1);
  table.append_log(running, R"({"event":"run_begin"})");
  table.append_log(running, R"({"event":"job_end"})");
  // A running job's log is not retained yet.
  EXPECT_EQ(gauge("svc.jobs.retained"), 0);
  EXPECT_EQ(gauge("svc.jobs.log_bytes"), 0);
  table.finish(running, svc::JobState::kDone, ga::RunResult{}, "", 0.01);
  EXPECT_EQ(counter("svc.jobs.completed"), 1u);
  const obs::MetricsSnapshot after_finish = registry.snapshot();
  EXPECT_EQ(after_finish.histogram("svc.job.queue_ns")->count, 1u);
  EXPECT_EQ(after_finish.histogram("svc.job.run_ns")->count, 1u);
  EXPECT_EQ(after_finish.histogram("svc.job.total_ns")->count, 1u);
  EXPECT_EQ(gauge("svc.jobs.retained"), 1);
  EXPECT_EQ(gauge("svc.jobs.log_bytes"), log_bytes(running));
  EXPECT_EQ(log_bytes(running), 40);

  // Cancelling the still-queued job counts and empties the queue; its
  // table-written job_end line is retained too.
  table.request_cancel(second->record.id);
  EXPECT_EQ(counter("svc.jobs.cancelled"), 1u);
  EXPECT_EQ(depth(), 0);
  EXPECT_EQ(gauge("svc.jobs.retained"), 2);
  EXPECT_GT(log_bytes(second), 0);
  EXPECT_EQ(gauge("svc.jobs.log_bytes"),
            log_bytes(running) + log_bytes(second));

  // A drain retires what is still queued.
  const svc::JobPtr third = table.submit("engine=simple", 0, stop);
  EXPECT_EQ(gauge("svc.jobs.retained"), 2);
  EXPECT_EQ(table.drain(), 1);
  EXPECT_EQ(counter("svc.jobs.cancelled"), 2u);
  EXPECT_EQ(gauge("svc.jobs.retained"), 3);
  EXPECT_EQ(log_bytes(third), log_bytes(second));  // one job_end line each
  EXPECT_EQ(gauge("svc.jobs.log_bytes"),
            log_bytes(running) + log_bytes(second) + log_bytes(third));
  // A cancel on a terminal job changes nothing.
  EXPECT_EQ(table.request_cancel(first->record.id), svc::JobState::kDone);
  EXPECT_EQ(gauge("svc.jobs.retained"), 3);
}

TEST(ObsService, StatsOpExposesTheRegistryAndInfoGainsTotals) {
  svc::ServerConfig config;
  config.socket_path = "/tmp/psga_obs_" + std::to_string(::getpid()) + ".sock";
  config.max_seconds = 120.0;
  svc::Server server(config);
  server.start();
  {
    svc::Client client(config.socket_path);
    svc::SubmitOptions options;
    options.generations = 3;
    const long long id = client.submit(
        "problem=flowshop instance=ta001 engine=simple pop=8 seed=1", options);
    const svc::JobRecord job = client.wait(id);
    EXPECT_EQ(job.state, svc::JobState::kDone);

    const Json stats = client.stats();
    EXPECT_TRUE(stats.find("ok")->as_bool());
    EXPECT_GE(stats.number_or("uptime_seconds", -1.0), 0.0);
    const Json* metrics = stats.find("metrics");
    ASSERT_NE(metrics, nullptr);
    const obs::MetricsSnapshot snapshot = exp::metrics_from_json(*metrics);
    ASSERT_NE(snapshot.counter("svc.jobs.admitted"), nullptr);
    EXPECT_GE(*snapshot.counter("svc.jobs.admitted"), 1u);
    ASSERT_NE(snapshot.counter("svc.jobs.completed"), nullptr);
    EXPECT_GE(*snapshot.counter("svc.jobs.completed"), 1u);
    ASSERT_NE(snapshot.histogram("svc.job.run_ns"), nullptr);
    EXPECT_GE(snapshot.histogram("svc.job.run_ns")->count, 1u);

    const Json info = client.info();
    EXPECT_FALSE(info.string_or("build_type", "").empty());
    EXPECT_GE(info.number_or("uptime_seconds", -1.0), 0.0);
    const Json* totals = info.find("totals");
    ASSERT_NE(totals, nullptr);
    EXPECT_GE(totals->number_or("admitted", -1), 1);
    EXPECT_GE(totals->number_or("completed", -1), 1);
    const Json* latency = info.find("latency");
    ASSERT_NE(latency, nullptr);
    ASSERT_NE(latency->find("run"), nullptr);
    EXPECT_GE(latency->find("run")->number_or("p50", -1.0), 0.0);
  }
  server.stop();
}

}  // namespace
}  // namespace psga
