#include "src/ga/evaluator.h"

#include <chrono>
#include <utility>

namespace psga::ga {

namespace {

std::uint64_t elapsed_ns(std::chrono::steady_clock::time_point start) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

}  // namespace

Evaluator::Evaluator(ProblemPtr problem, EvalBackend backend,
                     par::ThreadPool* pool, EvalCachePtr cache)
    : problem_(std::move(problem)),
      backend_(backend),
      // Only the pool backend needs a pool; don't materialize the
      // process-wide default pool (and its worker threads) for serial
      // evaluators.
      pool_(backend == EvalBackend::kThreadPool && pool == nullptr
                ? &par::default_pool()
                : pool),
      cache_(std::move(cache)) {
  const int lanes =
      backend_ == EvalBackend::kThreadPool ? pool_->thread_count() : 1;
  workspaces_.reserve(static_cast<std::size_t>(lanes));
  for (int i = 0; i < lanes; ++i) {
    workspaces_.push_back(problem_->make_workspace());
  }
}

void Evaluator::raw_evaluate(GenomeViews genomes,
                             std::span<double> objectives) {
  if (decode_ns_ == nullptr && tracer_ == nullptr) {
    raw_evaluate_impl(genomes, objectives);
    return;
  }
  const obs::Span span(tracer_.get(), "decode");
  const auto start = std::chrono::steady_clock::now();
  raw_evaluate_impl(genomes, objectives);
  if (decode_ns_ != nullptr) {
    decode_ns_->record(elapsed_ns(start));
    batch_size_hist_->record(genomes.size());
    decoded_genomes_->add(genomes.size());
  }
}

void Evaluator::raw_evaluate_impl(GenomeViews genomes,
                                  std::span<double> objectives) {
  // One objective_batch call per lane over its whole slice; the batched
  // kernels block their working set themselves. The lane captures one
  // reference, so it fits std::function's small buffer and handing it to
  // the pool allocates nothing.
  const struct {
    Evaluator& self;
    GenomeViews genomes;
    std::span<double> objectives;
  } batch{*this, genomes, objectives};
  const auto lane = [&batch](std::size_t k, std::size_t begin,
                             std::size_t end) {
    batch.self.problem_->objective_batch(
        batch.genomes.subspan(begin, end - begin),
        batch.objectives.subspan(begin, end - begin), batch.self.workspace(k));
  };
  if (backend_ == EvalBackend::kSerial) {
    lane(0, 0, genomes.size());
  } else {
    pool_->parallel_lanes(genomes.size(), lane);
  }
}

void Evaluator::evaluate(std::span<const Genome> genomes,
                         std::span<double> objectives,
                         std::span<const std::uint8_t> known) {
  const std::size_t n = genomes.size();
  evaluations_ += static_cast<long long>(n);
  // eval.cache_ns times the filter and the inserts, not the decode.
  const bool timed = cache_ != nullptr && cache_ns_ != nullptr;
  auto start = timed ? std::chrono::steady_clock::now()
                     : std::chrono::steady_clock::time_point{};
  // Gather the slots to decode as views, on the calling thread in genome
  // order: a known slot keeps the caller's objective, and with a cache a
  // hit takes the memoized one.
  miss_views_.clear();
  miss_keys_.clear();
  std::size_t inherited = 0;
  {
    const obs::Span span(cache_ != nullptr ? tracer_.get() : nullptr,
                         "cache_filter");
    for (std::size_t i = 0; i < n; ++i) {
      if (!known.empty() && known[i] != 0) {
        ++inherited;
        continue;
      }
      if (cache_ != nullptr) {
        const std::uint64_t key = EvalCache::key(genomes[i]);
        if (const auto value = cache_->lookup(key, genomes[i])) {
          objectives[i] = *value;
          continue;
        }
        miss_keys_.push_back(key);
      }
      miss_views_.push_back(&genomes[i]);
    }
  }
  if (inherited > 0 && inherited_ != nullptr) inherited_->add(inherited);
  std::uint64_t spent = timed ? elapsed_ns(start) : 0;
  const std::size_t misses = miss_views_.size();
  if (misses > 0) {
    // A batch that decodes every slot writes the caller's span in place;
    // otherwise the values land in a buffer and are scattered to their
    // slots (a view's offset into `genomes` is its slot).
    const bool in_place = misses == n;
    if (!in_place && miss_values_.size() < misses) miss_values_.resize(misses);
    const std::span<double> values =
        in_place ? objectives : std::span(miss_values_.data(), misses);
    raw_evaluate(miss_views_, values);
    decode_calls_ += static_cast<long long>(misses);
    if (!in_place) {
      for (std::size_t j = 0; j < misses; ++j) {
        objectives[static_cast<std::size_t>(miss_views_[j] - genomes.data())] =
            values[j];
      }
    }
    if (cache_ != nullptr) {
      if (timed) start = std::chrono::steady_clock::now();
      for (std::size_t j = 0; j < misses; ++j) {
        cache_->insert(miss_keys_[j], *miss_views_[j], values[j]);
      }
      if (timed) spent += elapsed_ns(start);
    }
  }
  if (timed) cache_ns_->record(spent);
}

double Evaluator::evaluate_one(const Genome& genome) {
  ++evaluations_;
  std::uint64_t key = 0;
  if (cache_ != nullptr) {
    key = EvalCache::key(genome);
    if (const auto value = cache_->lookup(key, genome)) return *value;
  }
  const double objective = problem_->objective(genome, workspace(0));
  ++decode_calls_;
  if (decoded_genomes_ != nullptr) decoded_genomes_->add();
  if (cache_ != nullptr) cache_->insert(key, genome, objective);
  return objective;
}

void Evaluator::set_obs(obs::RegistryPtr metrics,
                        std::shared_ptr<obs::Tracer> tracer) {
  metrics_ = std::move(metrics);
  tracer_ = std::move(tracer);
  if (metrics_ != nullptr) {
    decode_ns_ = &metrics_->histogram("eval.decode_ns");
    batch_size_hist_ = &metrics_->histogram("eval.batch_size");
    decoded_genomes_ = &metrics_->counter("eval.decoded_genomes");
    inherited_ = &metrics_->counter("eval.inherited");
    cache_ns_ = &metrics_->histogram("eval.cache_ns");
  } else {
    decode_ns_ = nullptr;
    batch_size_hist_ = nullptr;
    decoded_genomes_ = nullptr;
    inherited_ = nullptr;
    cache_ns_ = nullptr;
  }
}

}  // namespace psga::ga
