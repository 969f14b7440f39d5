#include "src/ga/cellular_ga.h"

#include <algorithm>
#include <cstdlib>

#include "src/ga/simple_ga.h"

namespace psga::ga {

CellularGa::CellularGa(ProblemPtr problem, CellularConfig config,
                       par::ThreadPool* pool)
    : problem_(std::move(problem)),
      config_(std::move(config)),
      pool_(pool != nullptr ? pool : &par::default_pool()),
      evaluator_(problem_, config_.eval_backend, pool_, config_.eval_cache) {
  if (!config_.crossover || !config_.mutation) {
    OperatorConfig defaults = default_operators(*problem_);
    if (!config_.crossover) config_.crossover = defaults.crossover;
    if (!config_.mutation) config_.mutation = defaults.mutation;
  }
  obs::ensure_registry(config_.metrics);
  attach(config_.metrics, config_.tracer, config_.eval_cache);
  evaluator_.set_obs(config_.metrics, config_.tracer);
}

std::vector<int> CellularGa::neighbors_of(int cell) const {
  const int w = config_.width;
  const int h = config_.height;
  const int x = cell % w;
  const int y = cell / w;
  const int r = config_.radius;
  std::vector<int> out;
  for (int dy = -r; dy <= r; ++dy) {
    for (int dx = -r; dx <= r; ++dx) {
      if (dx == 0 && dy == 0) continue;
      if (config_.neighborhood == Neighborhood::kVonNeumann &&
          std::abs(dx) + std::abs(dy) > r) {
        continue;
      }
      const int nx = ((x + dx) % w + w) % w;  // torus wrap
      const int ny = ((y + dy) % h + h) % h;
      const int neighbor = ny * w + nx;
      if (neighbor != cell &&
          std::find(out.begin(), out.end(), neighbor) == out.end()) {
        out.push_back(neighbor);
      }
    }
  }
  return out;
}

void CellularGa::init() {
  const int n = cells();
  par::Rng root(config_.seed);
  grid_.clear();
  grid_.reserve(static_cast<std::size_t>(n));
  cell_rngs_.clear();
  cell_rngs_.reserve(static_cast<std::size_t>(n));
  neighbor_table_.clear();
  neighbor_table_.reserve(static_cast<std::size_t>(n));
  for (int c = 0; c < n; ++c) {
    cell_rngs_.push_back(root.split(static_cast<std::uint64_t>(c)));
    grid_.push_back(problem_->random_genome(cell_rngs_.back()));
    neighbor_table_.push_back(neighbors_of(c));
  }
  // Warm start: injected individuals occupy the leading cells (the random
  // draw above still happens so unseeded cells' streams are unaffected).
  for (std::size_t c = 0;
       c < config_.initial_population.size() && c < grid_.size(); ++c) {
    grid_[c] = config_.initial_population[c];
  }
  objectives_.assign(static_cast<std::size_t>(n), 0.0);
  evaluations_baseline_ = evaluator_.evaluations();
  evaluator_.evaluate(grid_, objectives_);
  generation_ = 0;
  best_objective_ = objectives_.front();
  best_ = grid_.front();
  update_best();
}

void CellularGa::update_best() {
  for (std::size_t c = 0; c < grid_.size(); ++c) {
    if (objectives_[c] < best_objective_) {
      best_objective_ = objectives_[c];
      best_ = grid_[c];
    }
  }
}

void CellularGa::step() {
  const int n = cells();
  next_grid_.resize(static_cast<std::size_t>(n));
  next_objectives_.assign(static_cast<std::size_t>(n), 0.0);
  // One byte per cell, since pool lanes write it: an offspring that is an
  // untouched clone of its cell inherits the cell's objective.
  next_known_.assign(static_cast<std::size_t>(n), 0);
  const GenomeTraits& traits = problem_->traits();

  // Phase 1 — breeding: every cell produces its candidate offspring from
  // its own Rng stream (thread-count independent).
  pool_->parallel_for(static_cast<std::size_t>(n), [&](std::size_t c) {
    par::Rng& rng = cell_rngs_[c];
    const std::vector<int>& hood = neighbor_table_[c];
    // Binary tournament within the neighborhood for the mate. A cell
    // without neighbors (a 1x1 grid) mates with itself.
    auto pick_neighbor = [&] {
      if (hood.empty()) return static_cast<int>(c);
      const int a = hood[rng.below(hood.size())];
      const int b = hood[rng.below(hood.size())];
      return objectives_[static_cast<std::size_t>(a)] <=
                     objectives_[static_cast<std::size_t>(b)]
                 ? a
                 : b;
    };
    const int mate = pick_neighbor();
    Genome child1;
    Genome child2;
    const bool crossed = rng.chance(config_.crossover_rate);
    if (crossed) {
      config_.crossover->cross(grid_[c],
                               grid_[static_cast<std::size_t>(mate)], traits,
                               child1, child2, rng);
    } else {
      child1 = grid_[c];
    }
    const bool mutated = rng.chance(config_.mutation_rate);
    if (mutated) config_.mutation->mutate(child1, traits, rng);
    if (!crossed && !mutated) {
      next_objectives_[c] = objectives_[c];
      next_known_[c] = 1;
    }
    next_grid_[c] = std::move(child1);
  });

  // Phase 2 — one batched fitness evaluation for the cells that changed.
  evaluator_.evaluate(next_grid_, next_objectives_, next_known_);

  // Phase 3 — synchronous replacement.
  for (std::size_t c = 0; c < static_cast<std::size_t>(n); ++c) {
    if (config_.replace_if_better && next_objectives_[c] > objectives_[c]) {
      next_grid_[c] = grid_[c];
      next_objectives_[c] = objectives_[c];
    }
  }
  grid_.swap(next_grid_);
  objectives_.swap(next_objectives_);
  ++generation_;
  update_best();
}

void CellularGa::replace_cell(int cell, const Genome& genome,
                              double objective) {
  grid_[static_cast<std::size_t>(cell)] = genome;
  objectives_[static_cast<std::size_t>(cell)] = objective;
  if (objective < best_objective_) {
    best_objective_ = objective;
    best_ = genome;
  }
}

}  // namespace psga::ga
