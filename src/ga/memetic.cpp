#include "src/ga/memetic.h"

#include <algorithm>
#include <numeric>

namespace psga::ga {

MemeticGa::MemeticGa(ProblemPtr problem, MemeticConfig config)
    : problem_(std::move(problem)), config_(std::move(config)) {
  obs::ensure_registry(config_.base.metrics);
  attach_obs(config_.base.metrics, config_.base.tracer);
  climbs_ = &config_.base.metrics->counter("engine.climbs");
}

void MemeticGa::init() {
  inner_.emplace(problem_, config_.base);
  rng_ = par::Rng(config_.base.seed ^ 0x5eedu);
  inner_->init();
}

void MemeticGa::step() {
  inner_->step();
  if (config_.interval > 0 && inner_->generation() % config_.interval == 0) {
    const obs::Span span(tracer_.get(), "local_search");
    // Refine the current top individuals in place.
    std::vector<int> order(inner_->population().size());
    std::iota(order.begin(), order.end(), 0);
    const int refine = std::min<int>(
        config_.refine_count, static_cast<int>(inner_->population().size()));
    std::partial_sort(order.begin(),
                      order.begin() + static_cast<std::ptrdiff_t>(refine),
                      order.end(), [&](int a, int b) {
                        return inner_->objectives()[static_cast<std::size_t>(a)] <
                               inner_->objectives()[static_cast<std::size_t>(b)];
                      });
    for (int r = 0; r < refine; ++r) {
      const int slot = order[static_cast<std::size_t>(r)];
      Genome candidate = inner_->population()[static_cast<std::size_t>(slot)];
      const double before =
          inner_->objectives()[static_cast<std::size_t>(slot)];
      // Climbs evaluate through the inner engine's Evaluator: counted
      // toward budgets like any evaluation and memoized by the cache.
      climbs_->add();
      double after = local_search_swap(inner_->evaluator(), candidate,
                                       config_.search_budget, rng_);
      if (config_.use_redirect && after >= before) {
        // Escape: perturb and climb again ([38]'s Redirect step).
        Genome restarted = candidate;
        redirect(restarted, rng_);
        const double redirected = local_search_swap(
            inner_->evaluator(), restarted, config_.search_budget, rng_);
        if (redirected < after) {
          candidate = std::move(restarted);
          after = redirected;
        }
      }
      if (after < before) {
        inner_->replace_individual(slot, candidate, after);
      }
    }
  }
}

}  // namespace psga::ga
