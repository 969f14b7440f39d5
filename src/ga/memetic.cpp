#include "src/ga/memetic.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <string>

#include "src/ga/local_search.h"
#include "src/ga/solver.h"

namespace psga::ga {

MemeticGa::MemeticGa(ProblemPtr problem, MemeticConfig config)
    : SimpleGa(std::move(problem), std::move(config.base)),
      interval_(config.interval),
      refine_count_(config.refine_count),
      search_budget_(config.search_budget),
      use_redirect_(config.use_redirect),
      climbs_(&metrics_->counter("engine.climbs")) {
  // A negative count would hand partial_sort a middle before begin().
  if (refine_count_ < 0 || refine_count_ > SolverSpec::kMaxPopulation) {
    throw std::invalid_argument(
        "MemeticGa: refine_count must be in [0, " +
        std::to_string(SolverSpec::kMaxPopulation) + "], got " +
        std::to_string(refine_count_));
  }
}

void MemeticGa::init() {
  climb_rng_ = par::Rng(config().seed ^ 0x5eedu);
  SimpleGa::init();
}

void MemeticGa::step() {
  SimpleGa::step();
  if (interval_ <= 0 || generation() % interval_ != 0) return;
  const obs::Span span(tracer_.get(), "local_search");
  // Refine the current top individuals in place.
  const std::vector<double>& objectives = this->objectives();
  std::vector<int> order(objectives.size());
  std::iota(order.begin(), order.end(), 0);
  const int refine =
      std::min<int>(refine_count_, static_cast<int>(objectives.size()));
  std::partial_sort(order.begin(),
                    order.begin() + static_cast<std::ptrdiff_t>(refine),
                    order.end(), [&](int a, int b) {
                      return objectives[static_cast<std::size_t>(a)] <
                             objectives[static_cast<std::size_t>(b)];
                    });
  for (int r = 0; r < refine; ++r) {
    const int slot = order[static_cast<std::size_t>(r)];
    Genome candidate = population()[static_cast<std::size_t>(slot)];
    const double before = objectives[static_cast<std::size_t>(slot)];
    // Climbs evaluate through the engine's Evaluator: counted toward
    // budgets like any evaluation and memoized by the cache.
    climbs_->add();
    double after =
        local_search_swap(evaluator(), candidate, search_budget_, climb_rng_);
    if (use_redirect_ && after >= before) {
      // Escape: perturb and climb again ([38]'s Redirect step).
      Genome restarted = candidate;
      redirect(restarted, climb_rng_);
      const double redirected = local_search_swap(
          evaluator(), restarted, search_budget_, climb_rng_);
      if (redirected < after) {
        candidate = std::move(restarted);
        after = redirected;
      }
    }
    if (after < before) replace_individual(slot, candidate, after);
  }
}

}  // namespace psga::ga
