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

void Evaluator::raw_evaluate(std::span<const Genome> genomes,
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

void Evaluator::raw_evaluate_impl(std::span<const Genome> genomes,
                                  std::span<double> objectives) {
  // One objective_batch call per lane over its whole slice; the batched
  // kernels block their working set themselves. The lane captures one
  // reference, so it fits std::function's small buffer and handing it to
  // the pool allocates nothing.
  const struct {
    Evaluator& self;
    std::span<const Genome> genomes;
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
                         std::span<double> objectives) {
  const std::size_t n = genomes.size();
  evaluations_ += static_cast<long long>(n);
  if (cache_ == nullptr) {
    raw_evaluate(genomes, objectives);
    decode_calls_ += static_cast<long long>(n);
    return;
  }
  // eval.cache_ns times the filter and the inserts, not the decode.
  const bool timed = cache_ns_ != nullptr;
  auto start = timed ? std::chrono::steady_clock::now()
                     : std::chrono::steady_clock::time_point{};
  // Filter hits on the calling thread, decode only the misses (still
  // batched through the backend), then publish the fresh values.
  if (cache_keys_.size() < n) cache_keys_.resize(n);
  miss_slots_.clear();
  {
    const obs::Span span(tracer_.get(), "cache_filter");
    for (std::size_t i = 0; i < n; ++i) {
      cache_keys_[i] = EvalCache::key(genomes[i]);
      if (const auto value = cache_->lookup(cache_keys_[i], genomes[i])) {
        objectives[i] = *value;
      } else {
        miss_slots_.push_back(i);
      }
    }
  }
  const std::size_t misses = miss_slots_.size();
  // An all-miss batch decodes the caller's span in place; a mixed one
  // copy-assigns its misses into buffers that only ever grow, so their
  // genomes keep their capacity from batch to batch.
  std::span<const Genome> miss_genomes = genomes;
  std::span<double> miss_values = objectives;
  if (misses < n) {
    if (miss_genomes_.size() < misses) miss_genomes_.resize(misses);
    if (miss_values_.size() < misses) miss_values_.resize(misses);
    for (std::size_t j = 0; j < misses; ++j) {
      miss_genomes_[j] = genomes[miss_slots_[j]];
    }
    miss_genomes = {miss_genomes_.data(), misses};
    miss_values = {miss_values_.data(), misses};
  }
  std::uint64_t spent = timed ? elapsed_ns(start) : 0;
  if (misses > 0) {
    raw_evaluate(miss_genomes, miss_values);
    decode_calls_ += static_cast<long long>(misses);
    if (timed) start = std::chrono::steady_clock::now();
    for (std::size_t j = 0; j < misses; ++j) {
      const std::size_t i = miss_slots_[j];
      cache_->insert(cache_keys_[i], miss_genomes[j], miss_values[j]);
      objectives[i] = miss_values[j];
    }
    if (timed) spent += elapsed_ns(start);
  }
  if (timed) cache_ns_->record(spent);
}

double Evaluator::evaluate_one(const Genome& genome) {
  ++evaluations_;
  if (cache_ != nullptr) {
    const std::uint64_t key = EvalCache::key(genome);
    if (const auto value = cache_->lookup(key, genome)) return *value;
    const double objective = problem_->objective(genome, workspace(0));
    ++decode_calls_;
    cache_->insert(key, genome, objective);
    return objective;
  }
  ++decode_calls_;
  return problem_->objective(genome, workspace(0));
}

void Evaluator::set_obs(obs::RegistryPtr metrics,
                        std::shared_ptr<obs::Tracer> tracer) {
  metrics_ = std::move(metrics);
  tracer_ = std::move(tracer);
  if (metrics_ != nullptr) {
    decode_ns_ = &metrics_->histogram("eval.decode_ns");
    batch_size_hist_ = &metrics_->histogram("eval.batch_size");
    decoded_genomes_ = &metrics_->counter("eval.decoded_genomes");
    cache_ns_ = &metrics_->histogram("eval.cache_ns");
  } else {
    decode_ns_ = nullptr;
    batch_size_hist_ = nullptr;
    decoded_genomes_ = nullptr;
    cache_ns_ = nullptr;
  }
}

}  // namespace psga::ga
