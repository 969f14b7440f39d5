// Taillard's benchmark instance generator (E. Taillard, "Benchmarks for
// basic scheduling problems", EJOR 64, 1993). The surveyed flow-shop
// papers ([18][24][25][30][31]) evaluate on Taillard instances; the
// original data files are not shipped here, but the paper publishes the
// *generator* — a specific linear congruential RNG plus seeds — so the
// instances are regenerated bit-exactly from the published time seeds.
#pragma once

#include <cstdint>
#include <vector>

#include "src/sched/flow_shop.h"
#include "src/sched/job_shop.h"

namespace psga::sched {

/// Taillard's portable uniform generator: x <- (16807·x) mod (2^31 - 1)
/// via Schrage's trick; yields an integer in [low, high].
class TaillardRng {
 public:
  explicit TaillardRng(std::int32_t seed) : seed_(seed) {}

  int next(int low, int high);

  std::int32_t state() const { return seed_; }

 private:
  std::int32_t seed_;
};

/// Flow shop: d[machine][job] = unif(1, 99), generated job-major exactly
/// as in the published pseudo-code.
FlowShopInstance taillard_flow_shop(int jobs, int machines,
                                    std::int32_t time_seed);

/// Job shop: durations unif(1, 99) + machine orders produced by Taillard's
/// swap procedure from a second seed.
JobShopInstance taillard_job_shop(int jobs, int machines,
                                  std::int32_t time_seed,
                                  std::int32_t machine_seed);

/// A published Taillard flow-shop benchmark entry: its generator seed and
/// the best-known makespan from the literature, the RPD reference. The
/// generator rebuilds the published instance from its seed; best_known is
/// the literature's record, which the GAs here are not expected to reach.
struct TaillardBenchmark {
  const char* name;
  int jobs;
  int machines;
  std::int32_t time_seed;
  Time best_known;
};

/// The ta001..ta010 (20 jobs × 5 machines) entries.
const std::vector<TaillardBenchmark>& taillard_20x5();

/// Instantiates a benchmark entry.
FlowShopInstance make_taillard(const TaillardBenchmark& bench);

}  // namespace psga::sched
