#include "src/ga/selection.h"

#include <algorithm>
#include <numeric>

namespace psga::ga {

std::vector<int> Selection::pick_many(std::span<const double> fitness,
                                      int count, par::Rng& rng) const {
  std::vector<int> out;
  out.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) out.push_back(pick(fitness, rng));
  return out;
}

namespace {

double total_fitness(std::span<const double> fitness) {
  double total = 0.0;
  for (double f : fitness) total += std::max(f, 0.0);
  return total;
}

/// A roulette wheel: the running sums of the fitness (negative values
/// count as zero), built once for any number of spins.
class Wheel {
 public:
  explicit Wheel(std::span<const double> fitness) : sums_(fitness.size()) {
    for (std::size_t i = 0; i < fitness.size(); ++i) {
      total_ += std::max(fitness[i], 0.0);
      sums_[i] = total_;
    }
  }

  /// Uniform when the wheel holds no fitness mass; otherwise the first
  /// slot whose running sum exceeds one uniform draw scaled to the total.
  int spin(par::Rng& rng) const {
    if (total_ <= 0.0) return static_cast<int>(rng.below(sums_.size()));
    const double target = rng.uniform() * total_;
    const auto hit = std::upper_bound(sums_.begin(), sums_.end(), target);
    return static_cast<int>(
        std::min<std::ptrdiff_t>(hit - sums_.begin(),
                                 static_cast<std::ptrdiff_t>(sums_.size()) - 1));
  }

 private:
  std::vector<double> sums_;
  double total_ = 0.0;
};

/// Linear ranking: worst gets 2 - pressure, best gets pressure.
std::vector<double> rank_fitness(std::span<const double> fitness,
                                 double pressure) {
  const std::size_t n = fitness.size();
  std::vector<int> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return fitness[static_cast<std::size_t>(a)] <
           fitness[static_cast<std::size_t>(b)];
  });
  std::vector<double> ranked(n);
  for (std::size_t r = 0; r < n; ++r) {
    const double value =
        (2.0 - pressure) +
        2.0 * (pressure - 1.0) * static_cast<double>(r) /
            std::max<double>(1.0, static_cast<double>(n - 1));
    ranked[static_cast<std::size_t>(order[r])] = value;
  }
  return ranked;
}

/// The indices of the top max(1, fraction * n) fitness values, best first.
std::vector<int> elite_order(std::span<const double> fitness,
                             double fraction) {
  const std::size_t n = fitness.size();
  const int elite_count =
      std::max(1, static_cast<int>(fraction * static_cast<double>(n)));
  std::vector<int> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::partial_sort(order.begin(),
                    order.begin() + static_cast<std::ptrdiff_t>(elite_count),
                    order.end(), [&](int a, int b) {
                      return fitness[static_cast<std::size_t>(a)] >
                             fitness[static_cast<std::size_t>(b)];
                    });
  order.resize(static_cast<std::size_t>(elite_count));
  return order;
}

}  // namespace

int RouletteSelection::pick(std::span<const double> fitness,
                            par::Rng& rng) const {
  return Wheel(fitness).spin(rng);
}

std::vector<int> RouletteSelection::pick_many(std::span<const double> fitness,
                                              int count, par::Rng& rng) const {
  std::vector<int> out;
  if (count <= 0) return out;
  out.reserve(static_cast<std::size_t>(count));
  const Wheel wheel(fitness);
  for (int i = 0; i < count; ++i) out.push_back(wheel.spin(rng));
  return out;
}

int StochasticUniversalSelection::pick(std::span<const double> fitness,
                                       par::Rng& rng) const {
  return RouletteSelection{}.pick(fitness, rng);
}

std::vector<int> StochasticUniversalSelection::pick_many(
    std::span<const double> fitness, int count, par::Rng& rng) const {
  const double total = total_fitness(fitness);
  if (total <= 0.0 || count <= 0) {
    return Selection::pick_many(fitness, count, rng);
  }
  const double step = total / count;
  double pointer = rng.uniform() * step;
  std::vector<int> out;
  out.reserve(static_cast<std::size_t>(count));
  double acc = 0.0;
  std::size_t i = 0;
  for (int k = 0; k < count; ++k) {
    const double target = pointer + step * k;
    while (i < fitness.size() - 1 && acc + std::max(fitness[i], 0.0) <= target) {
      acc += std::max(fitness[i], 0.0);
      ++i;
    }
    out.push_back(static_cast<int>(i));
  }
  return out;
}

int TournamentSelection::pick(std::span<const double> fitness,
                              par::Rng& rng) const {
  int best = static_cast<int>(rng.below(fitness.size()));
  for (int round = 1; round < k_; ++round) {
    const int challenger = static_cast<int>(rng.below(fitness.size()));
    if (fitness[static_cast<std::size_t>(challenger)] >
        fitness[static_cast<std::size_t>(best)]) {
      best = challenger;
    }
  }
  return best;
}

int RankSelection::pick(std::span<const double> fitness, par::Rng& rng) const {
  return RouletteSelection{}.pick(rank_fitness(fitness, pressure_), rng);
}

std::vector<int> RankSelection::pick_many(std::span<const double> fitness,
                                          int count, par::Rng& rng) const {
  return RouletteSelection{}.pick_many(rank_fitness(fitness, pressure_), count,
                                       rng);
}

int ElitistRouletteSelection::pick(std::span<const double> fitness,
                                   par::Rng& rng) const {
  return pick_many(fitness, 1, rng).front();
}

std::vector<int> ElitistRouletteSelection::pick_many(
    std::span<const double> fitness, int count, par::Rng& rng) const {
  std::vector<int> out;
  if (count <= 0) return out;
  out.reserve(static_cast<std::size_t>(count));
  const Wheel wheel(fitness);
  const std::vector<int> elite = elite_order(fitness, elite_fraction_);
  for (int i = 0; i < count; ++i) {
    if (rng.chance(elite_bias_)) {
      out.push_back(elite[rng.below(elite.size())]);
    } else {
      out.push_back(wheel.spin(rng));
    }
  }
  return out;
}

}  // namespace psga::ga
