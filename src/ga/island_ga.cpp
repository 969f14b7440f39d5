#include "src/ga/island_ga.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace psga::ga {

IslandGa::IslandGa(ProblemPtr problem, IslandGaConfig config,
                   par::ThreadPool* pool)
    : problem_(std::move(problem)),
      config_(std::move(config)),
      pool_(pool != nullptr ? pool : &par::default_pool()),
      migration_rng_(0) {
  obs::ensure_registry(config_.base.metrics);
  attach(config_.base.metrics, config_.base.tracer, config_.base.eval_cache);
  migrants_ = &config_.base.metrics->counter("engine.migrants");
}

std::vector<IslandGa::Edge> IslandGa::edges_for_epoch(
    int epoch, std::span<const int> alive) {
  const int k = static_cast<int>(alive.size());
  std::vector<Edge> edges;
  if (k < 2) return edges;
  auto add = [&](int from_pos, int to_pos) {
    edges.push_back(Edge{alive[static_cast<std::size_t>(from_pos)],
                         alive[static_cast<std::size_t>(to_pos)]});
  };
  switch (config_.migration.topology) {
    case Topology::kRing:
      for (int i = 0; i < k; ++i) add(i, (i + 1) % k);
      break;
    case Topology::kGrid:
    case Topology::kTorus: {
      // Near-square arrangement of the alive islands.
      const int cols = std::max(1, static_cast<int>(std::ceil(std::sqrt(k))));
      const int rows = (k + cols - 1) / cols;
      const bool wrap = config_.migration.topology == Topology::kTorus;
      auto at = [&](int r, int c) { return r * cols + c; };
      for (int r = 0; r < rows; ++r) {
        for (int c = 0; c < cols; ++c) {
          const int i = at(r, c);
          if (i >= k) continue;
          // Right neighbor.
          int cr = c + 1;
          if (cr >= cols && wrap) cr = 0;
          if (cr < cols && at(r, cr) < k && at(r, cr) != i) add(i, at(r, cr));
          // Down neighbor.
          int rd = r + 1;
          if (rd >= rows && wrap) rd = 0;
          if (rd < rows && at(rd, c) < k && at(rd, c) != i) add(i, at(rd, c));
        }
      }
      break;
    }
    case Topology::kFullyConnected:
      for (int i = 0; i < k; ++i) {
        for (int j = 0; j < k; ++j) {
          if (i != j) add(i, j);
        }
      }
      break;
    case Topology::kStar:
      for (int i = 1; i < k; ++i) {
        add(i, 0);
        add(0, i);
      }
      break;
    case Topology::kHypercube: {
      // Edges along every dimension that stays inside [0, k).
      for (int i = 0; i < k; ++i) {
        for (int bit = 1; bit < k; bit <<= 1) {
          const int j = i ^ bit;
          if (j < k) add(i, j);
        }
      }
      break;
    }
    case Topology::kRandom: {
      // Fresh random routes per epoch ([36]): a random permutation cycle.
      par::Rng rng(config_.base.seed ^ (0x9e3779b97f4a7c15ULL *
                                        static_cast<std::uint64_t>(epoch + 1)));
      std::vector<int> order(static_cast<std::size_t>(k));
      std::iota(order.begin(), order.end(), 0);
      rng.shuffle(order);
      for (int i = 0; i < k; ++i) {
        add(order[static_cast<std::size_t>(i)],
            order[static_cast<std::size_t>((i + 1) % k)]);
      }
      break;
    }
  }
  return edges;
}

void IslandGa::migrate(std::span<const Edge> edges) {
  const MigrationConfig& mig = config_.migration;
  // Collect all transfers first (synchronous migration: everyone ships the
  // individuals selected *before* any replacement happens). With
  // delay_epochs > 0 the transfers go to the in-flight queue instead and
  // are delivered by deliver_due() at a later epoch — a deterministic
  // model of asynchronous migration staleness.
  std::vector<Transfer> transfers;
  for (const Edge& edge : edges) {
    SimpleGa& source = islands_[static_cast<std::size_t>(edge.from)];
    for (int c = 0; c < mig.count; ++c) {
      int index;
      if (mig.policy == MigrationPolicy::kRandomReplaceRandom) {
        index = static_cast<int>(migration_rng_.below(source.population().size()));
      } else {
        index = source.best_index();
      }
      transfers.push_back(Transfer{
          edge.from, edge.to,
          source.population()[static_cast<std::size_t>(index)],
          source.objectives()[static_cast<std::size_t>(index)]});
    }
  }
  if (mig.delay_epochs > 0) {
    in_flight_.push_back(std::move(transfers));
    return;
  }
  deliver(transfers);
}

void IslandGa::deliver(std::span<const Transfer> transfers) {
  for (const Transfer& t : transfers) {
    SimpleGa& dest = islands_[static_cast<std::size_t>(t.to)];
    int slot;
    if (config_.migration.policy == MigrationPolicy::kBestReplaceWorst) {
      slot = dest.worst_index();
    } else {
      slot = static_cast<int>(migration_rng_.below(dest.population().size()));
    }
    dest.replace_individual(slot, t.genome, t.objective);
    migrants_->add();
    if (observer_ != nullptr) {
      observer_->on_migration(
          MigrationEvent{epoch_, t.from, t.to, t.objective});
    }
  }
}

void IslandGa::deliver_due() {
  // in_flight_[k] was queued k+1 epochs ago (front is oldest).
  if (static_cast<int>(in_flight_.size()) >= config_.migration.delay_epochs) {
    deliver(in_flight_.front());
    in_flight_.erase(in_flight_.begin());
  }
}

void IslandGa::init() {
  const int k = config_.islands;
  par::Rng root(config_.base.seed);
  migration_rng_ = root.split(0x10000);

  // Build the islands: per-island seed streams, optional heterogeneous
  // operators/problems, optional identical start populations.
  islands_.clear();
  islands_.reserve(static_cast<std::size_t>(k));
  for (int i = 0; i < k; ++i) {
    // Islands step concurrently on the pool; inner_engine_config keeps
    // their evaluators off it (the pool is not re-entrant) — serial on
    // the stepping thread. The fan-out parallelism of this model lives
    // at the island level. Every island gets the base's cache handle:
    // migration and merging duplicate genomes *across* islands, and
    // memoized objectives are pure values, so sharing is deterministic.
    GaConfig cfg = inner_engine_config(config_.base);
    // Deal an injected population round-robin: genome j seeds island
    // j mod k (the copy from base above would otherwise clone the whole
    // set onto every island).
    cfg.initial_population.clear();
    for (std::size_t j = static_cast<std::size_t>(i);
         j < config_.base.initial_population.size();
         j += static_cast<std::size_t>(k)) {
      cfg.initial_population.push_back(config_.base.initial_population[j]);
    }
    cfg.seed = config_.identical_start
                   ? config_.base.seed
                   : root.split(static_cast<std::uint64_t>(i + 1))();
    if (!config_.per_island_ops.empty()) {
      cfg.ops = config_.per_island_ops[static_cast<std::size_t>(i) %
                                       config_.per_island_ops.size()];
    }
    ProblemPtr problem =
        config_.per_island_problems.empty()
            ? problem_
            : config_.per_island_problems[static_cast<std::size_t>(i)];
    islands_.emplace_back(std::move(problem), cfg);
  }
  // With identical starts but heterogeneous operators the initial
  // population must still match: same seed ⇒ same random genomes, because
  // initialization draws only genome randomness.
  pool_->parallel_for(islands_.size(),
                      [&](std::size_t i) { islands_[i].init(); });

  alive_.resize(static_cast<std::size_t>(k));
  std::iota(alive_.begin(), alive_.end(), 0);
  in_flight_.clear();
  generation_ = 0;
  epoch_ = 0;
  island_history_.assign(static_cast<std::size_t>(k), {});
  for (int i = 0; i < k; ++i) {
    island_history_[static_cast<std::size_t>(i)].push_back(
        islands_[static_cast<std::size_t>(i)].best_objective());
  }
}

void IslandGa::step() {
  // One generation on every alive island, in parallel.
  pool_->parallel_for(alive_.size(), [&](std::size_t idx) {
    islands_[static_cast<std::size_t>(alive_[idx])].step();
  });
  // Migration epoch.
  if (config_.migration.interval > 0 &&
      (generation_ + 1) % config_.migration.interval == 0 &&
      alive_.size() > 1) {
    const obs::Span span(tracer_.get(), "migration");
    if (config_.migration.delay_epochs > 0) {
      deliver_due();
    }
    const auto edges = edges_for_epoch(epoch_++, alive_);
    migrate(edges);
  }
  // Stagnation-triggered merging ([29]): a stagnated island pours its
  // population into its ring successor and disappears.
  if (config_.merge.enabled && alive_.size() > 1) {
    for (std::size_t pos = 0; pos < alive_.size(); ++pos) {
      SimpleGa& island = islands_[static_cast<std::size_t>(alive_[pos])];
      if (island.stagnation_fraction(config_.merge.hamming_threshold) >
          config_.merge.fraction) {
        SimpleGa& heir = islands_[static_cast<std::size_t>(
            alive_[(pos + 1) % alive_.size()])];
        heir.absorb(island.population(), island.objectives());
        alive_.erase(alive_.begin() + static_cast<std::ptrdiff_t>(pos));
        break;  // at most one merge per generation keeps things simple
      }
    }
  }
  ++generation_;
  for (int i : alive_) {
    island_history_[static_cast<std::size_t>(i)].push_back(
        islands_[static_cast<std::size_t>(i)].best_objective());
  }
}

double IslandGa::best_objective() const {
  // Scan ALL islands, not just alive ones: a merged-away island's
  // best-so-far genome may have been evicted from its population (by a
  // random-slot migration) before absorb() transferred it, and its
  // frozen record must still count — this also keeps best_objective()
  // consistent with fill_sections' per-island bests.
  if (islands_.empty()) return 0.0;
  double best = islands_.front().best_objective();
  for (const SimpleGa& island : islands_) {
    best = std::min(best, island.best_objective());
  }
  return best;
}

const Genome& IslandGa::best() const {
  const SimpleGa* best_island = &islands_.front();
  for (const SimpleGa& island : islands_) {
    if (island.best_objective() < best_island->best_objective()) {
      best_island = &island;
    }
  }
  return best_island->best();
}

long long IslandGa::evaluations() const {
  long long evaluations = 0;
  for (const SimpleGa& island : islands_) {
    evaluations += island.evaluations();
  }
  return evaluations;
}

int IslandGa::population_size() const {
  int size = 0;
  for (int i : alive_) {
    size += islands_[static_cast<std::size_t>(i)].population_size();
  }
  return size;
}

const Genome& IslandGa::individual(int i) const {
  for (int a : alive_) {
    const SimpleGa& island = islands_[static_cast<std::size_t>(a)];
    if (i < island.population_size()) return island.individual(i);
    i -= island.population_size();
  }
  throw std::out_of_range("IslandGa::individual: index past population");
}

double IslandGa::objective_of(int i) const {
  for (int a : alive_) {
    const SimpleGa& island = islands_[static_cast<std::size_t>(a)];
    if (i < island.population_size()) return island.objective_of(i);
    i -= island.population_size();
  }
  throw std::out_of_range("IslandGa::objective_of: index past population");
}

void IslandGa::fill_sections(RunResult& result) const {
  IslandSection section;
  const std::size_t k = islands_.size();
  section.best.reserve(k);
  section.best_genome.reserve(k);
  for (const SimpleGa& island : islands_) {
    section.best.push_back(island.best_objective());
    section.best_genome.push_back(island.best());
  }
  section.history = island_history_;
  section.surviving = surviving_islands();
  result.islands = std::move(section);
}

}  // namespace psga::ga
