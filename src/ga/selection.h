// Selection operators (Section III.A of the survey: "roulette wheel
// selection, stochastic universal sampling, tournament selection and so
// on", plus the elitist-roulette combination of Mui et al. [17]).
//
// All selections act on FITNESS values where larger is better — the
// engines apply one of the survey's fitness transforms (Eq. 1/2) to the
// minimized objective first.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/par/rng.h"

namespace psga::ga {

class Selection {
 public:
  virtual ~Selection() = default;

  virtual std::string name() const = 0;

  /// Index of one selected parent.
  virtual int pick(std::span<const double> fitness, par::Rng& rng) const = 0;

  /// `count` parents; the default draws independently, SUS overrides with
  /// its equally-spaced-pointer sweep.
  virtual std::vector<int> pick_many(std::span<const double> fitness,
                                     int count, par::Rng& rng) const;
};

using SelectionPtr = std::shared_ptr<const Selection>;

/// Fitness-proportionate (roulette wheel). Degenerates to uniform when all
/// fitness mass is zero.
class RouletteSelection final : public Selection {
 public:
  std::string name() const override { return "roulette"; }
  int pick(std::span<const double> fitness, par::Rng& rng) const override;
  /// Same picks and draws as repeated pick(); sums the wheel once.
  std::vector<int> pick_many(std::span<const double> fitness, int count,
                             par::Rng& rng) const override;
};

/// Stochastic universal sampling: one spin, `count` equally spaced
/// pointers — lower variance than repeated roulette.
class StochasticUniversalSelection final : public Selection {
 public:
  std::string name() const override { return "sus"; }
  int pick(std::span<const double> fitness, par::Rng& rng) const override;
  std::vector<int> pick_many(std::span<const double> fitness, int count,
                             par::Rng& rng) const override;
};

/// k-way tournament (Defersha & Chen use k-way; Kokosiński 2-elements).
class TournamentSelection final : public Selection {
 public:
  explicit TournamentSelection(int k = 2) : k_(k) {}
  std::string name() const override {
    return "tournament" + std::to_string(k_);
  }
  int pick(std::span<const double> fitness, par::Rng& rng) const override;

 private:
  int k_;
};

/// Linear ranking selection: pressure in [1, 2].
class RankSelection final : public Selection {
 public:
  explicit RankSelection(double pressure = 1.8) : pressure_(pressure) {}
  std::string name() const override { return "rank"; }
  int pick(std::span<const double> fitness, par::Rng& rng) const override;
  /// Same picks and draws as repeated pick(); ranks the population once.
  std::vector<int> pick_many(std::span<const double> fitness, int count,
                             par::Rng& rng) const override;

 private:
  double pressure_;
};

/// Mui et al. [17]: with probability `elite_bias` pick uniformly among the
/// top `elite_fraction` of the population, otherwise roulette.
class ElitistRouletteSelection final : public Selection {
 public:
  ElitistRouletteSelection(double elite_fraction = 0.1, double elite_bias = 0.5)
      : elite_fraction_(elite_fraction), elite_bias_(elite_bias) {}
  std::string name() const override { return "elitist-roulette"; }
  int pick(std::span<const double> fitness, par::Rng& rng) const override;
  /// Same picks and draws as repeated pick(); sums the wheel and sorts
  /// the elite once.
  std::vector<int> pick_many(std::span<const double> fitness, int count,
                             par::Rng& rng) const override;

 private:
  double elite_fraction_;
  double elite_bias_;
};

}  // namespace psga::ga
