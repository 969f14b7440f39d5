// Per-event replanning latency of psga::session under a seeded event
// trace — the number the session SLO story is about. Each iteration
// replays a fixed trace (same instance, same events, same seed) through
// a fresh Session and reports the p95 of the per-event wall times as the
// iteration time (UseManualTime), with the p50 riding along as a
// counter. warm:1 carries the previous population into each replan,
// warm:0 restarts cold — at a fixed generation budget the pair prices
// the repair/injection overhead (warm-start's payoff is fewer
// evaluations to a target, asserted in tests/test_session.cpp, not a
// faster fixed-budget event). ci.sh's micro-bench gate runs it against
// HEAD and fails a p95 more than 25% slower, like the decode kernels
// (tag: SessionEvent).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "src/ga/problem_registry.h"
#include "src/session/session.h"

namespace {

using namespace psga;

/// Nearest-rank percentile of per-event latencies (seconds).
double percentile(std::vector<double> samples, double q) {
  std::sort(samples.begin(), samples.end());
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(samples.size())));
  return samples[std::min(samples.size(), std::max<std::size_t>(rank, 1)) - 1];
}

void BM_SessionEventP95(benchmark::State& state) {
  const bool warm = state.range(0) != 0;
  const sched::JobShopInstance inst = ga::resolve_job_shop_instance("ft10");
  const std::vector<session::Event> trace = session::random_trace(inst, 20, 99);

  session::SessionConfig config;
  config.solver = "engine=simple pop=64";
  config.replan_generations = 25;
  config.seed = 17;
  config.warm.enabled = warm;

  double p50 = 0.0;
  for (auto _ : state) {
    session::Session session(inst, config, 1);
    session.open();
    std::vector<double> latencies;
    latencies.reserve(trace.size());
    for (const session::Event& event : trace) {
      latencies.push_back(session.apply(event).seconds);
    }
    state.SetIterationTime(percentile(latencies, 0.95));
    p50 = percentile(latencies, 0.50);
  }
  state.counters["p50_ms"] = p50 * 1e3;
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(trace.size()));
}
BENCHMARK(BM_SessionEventP95)
    ->ArgName("warm")
    ->Arg(0)
    ->Arg(1)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
