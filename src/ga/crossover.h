// Crossover operators.
//
// Permutation operators: n-point with order repair, PMX, OX (linear
// order), CX (cycle), position-based, order-based — the classic set the
// survey lists, used by [18] (cycle), [26] (operation-based variants),
// [28] (cycle), [32] (linear order).
// Permutation-with-repetition operators: JOX, PPX and THX-lite (the
// time-horizon exchange of Lin et al. [21] reduced to its one-point
// multiset form) — all validity-preserving on job-repetition sequences.
// Key-channel operators: parameterized uniform ([24]) and arithmetic
// ([25]).
// Search-intensive operators: MSXF (multi-step crossover fusion,
// Bożejko & Wodecki [30]) and path relinking (Spanos et al. [29]); both
// consult the Problem to walk toward the second parent.
//
// Every operator recombines the auxiliary channels (assignment via uniform
// mix, keys via whole-arithmetic blend) so flexible-shop genomes stay
// complete regardless of which sequencing crossover is configured.
//
// Threading contract: operators are `const` and one instance is shared by
// every island and cellular-grid thread, so cross() keeps no per-object
// mutable state. Operators that need buffers (JOX, OX, position-based)
// keep them thread-local and resize them per call; once grown they
// allocate nothing. Children must not alias either parent.
//
// JOX, OX and position-based share one keep-and-fill core
// (src/ga/keep_fill.h). For JOX on up to 64 jobs and OX on permutations
// of up to 64 values, an AVX-512 loop writes each child when the CPU
// reports AVX-512F; otherwise (and for position-based) the scalar loop,
// its oracle, does. Both paths draw the same random numbers and write the
// same children.
#pragma once

#include <memory>
#include <string>

#include "src/ga/genome.h"
#include "src/ga/problem.h"
#include "src/par/rng.h"

namespace psga::ga {

class Crossover {
 public:
  virtual ~Crossover() = default;

  virtual std::string name() const = 0;

  /// True if the operator keeps genomes of this sequencing kind valid.
  virtual bool supports(SeqKind kind) const = 0;

  /// Produces two children from two parents. `child1` and `child2` are
  /// overwritten; neither may be the same object as `a` or `b`.
  void cross(const Genome& a, const Genome& b, const GenomeTraits& traits,
             Genome& child1, Genome& child2, par::Rng& rng) const;

 protected:
  /// Sequencing-channel recombination. Children arrive with `assign` and
  /// `keys` already recombined and `seq` holding anything (a genome of
  /// another length, or nothing). Every implementation writes the whole
  /// `seq` of both children; one that leaves the chromosome alone (an
  /// early return) assigns the parents' sequences.
  virtual void cross_seq(const Genome& a, const Genome& b,
                         const GenomeTraits& traits, Genome& child1,
                         Genome& child2, par::Rng& rng) const = 0;
};

using CrossoverPtr = std::shared_ptr<const Crossover>;

// --- permutation operators -------------------------------------------------

class OnePointOrderCrossover final : public Crossover {
 public:
  std::string name() const override { return "one-point"; }
  bool supports(SeqKind kind) const override;

 protected:
  void cross_seq(const Genome&, const Genome&, const GenomeTraits&, Genome&,
                 Genome&, par::Rng&) const override;
};

class TwoPointOrderCrossover final : public Crossover {
 public:
  std::string name() const override { return "two-point"; }
  bool supports(SeqKind kind) const override;

 protected:
  void cross_seq(const Genome&, const Genome&, const GenomeTraits&, Genome&,
                 Genome&, par::Rng&) const override;
};

class PmxCrossover final : public Crossover {
 public:
  std::string name() const override { return "pmx"; }
  bool supports(SeqKind kind) const override {
    return kind == SeqKind::kPermutation;
  }

 protected:
  void cross_seq(const Genome&, const Genome&, const GenomeTraits&, Genome&,
                 Genome&, par::Rng&) const override;
};

class OxCrossover final : public Crossover {
 public:
  std::string name() const override { return "ox"; }
  bool supports(SeqKind kind) const override {
    return kind == SeqKind::kPermutation;
  }

 protected:
  void cross_seq(const Genome&, const Genome&, const GenomeTraits&, Genome&,
                 Genome&, par::Rng&) const override;
};

class CycleCrossover final : public Crossover {
 public:
  std::string name() const override { return "cycle"; }
  bool supports(SeqKind kind) const override {
    return kind == SeqKind::kPermutation;
  }

 protected:
  void cross_seq(const Genome&, const Genome&, const GenomeTraits&, Genome&,
                 Genome&, par::Rng&) const override;
};

class PositionBasedCrossover final : public Crossover {
 public:
  std::string name() const override { return "position-based"; }
  bool supports(SeqKind kind) const override {
    return kind == SeqKind::kPermutation;
  }

 protected:
  void cross_seq(const Genome&, const Genome&, const GenomeTraits&, Genome&,
                 Genome&, par::Rng&) const override;
};

// --- permutation-with-repetition operators ----------------------------------

class JoxCrossover final : public Crossover {
 public:
  std::string name() const override { return "jox"; }
  bool supports(SeqKind kind) const override;

 protected:
  void cross_seq(const Genome&, const Genome&, const GenomeTraits&, Genome&,
                 Genome&, par::Rng&) const override;
};

class PpxCrossover final : public Crossover {
 public:
  std::string name() const override { return "ppx"; }
  bool supports(SeqKind kind) const override;

 protected:
  void cross_seq(const Genome&, const Genome&, const GenomeTraits&, Genome&,
                 Genome&, par::Rng&) const override;
};

class ThxCrossover final : public Crossover {
 public:
  std::string name() const override { return "thx"; }
  bool supports(SeqKind kind) const override;

 protected:
  void cross_seq(const Genome&, const Genome&, const GenomeTraits&, Genome&,
                 Genome&, par::Rng&) const override;
};

// --- key-channel operators ----------------------------------------------------

/// Parameterized uniform crossover on the keys channel (Bean's biased
/// coin; Huang et al. [24]). Sequencing channel is copied through.
class UniformKeyCrossover final : public Crossover {
 public:
  explicit UniformKeyCrossover(double bias = 0.7) : bias_(bias) {}
  std::string name() const override { return "uniform-keys"; }
  bool supports(SeqKind kind) const override { return kind == SeqKind::kNone; }

 protected:
  void cross_seq(const Genome&, const Genome&, const GenomeTraits&, Genome&,
                 Genome&, par::Rng&) const override;

 private:
  double bias_;
};

/// Arithmetic crossover on keys (Zajicek & Šucha [25]).
class ArithmeticKeyCrossover final : public Crossover {
 public:
  std::string name() const override { return "arithmetic-keys"; }
  bool supports(SeqKind kind) const override { return kind == SeqKind::kNone; }

 protected:
  void cross_seq(const Genome&, const Genome&, const GenomeTraits&, Genome&,
                 Genome&, par::Rng&) const override;
};

// --- search-intensive operators -------------------------------------------

/// Multi-Step Crossover Fusion ([30]): walk from parent A toward parent B
/// by swap moves that reduce distance, keeping the best objective seen.
class MsxfCrossover final : public Crossover {
 public:
  MsxfCrossover(ProblemPtr problem, int steps = 16)
      : problem_(std::move(problem)), steps_(steps) {}
  std::string name() const override { return "msxf"; }
  bool supports(SeqKind kind) const override {
    return kind == SeqKind::kPermutation || kind == SeqKind::kJobRepetition;
  }

 protected:
  void cross_seq(const Genome&, const Genome&, const GenomeTraits&, Genome&,
                 Genome&, par::Rng&) const override;

 private:
  ProblemPtr problem_;
  int steps_;
};

/// Path relinking ([29]): evaluate every intermediate on the swap path
/// from A to B at a sampling stride; child = best intermediate.
class PathRelinkCrossover final : public Crossover {
 public:
  PathRelinkCrossover(ProblemPtr problem, int samples = 8)
      : problem_(std::move(problem)), samples_(samples) {}
  std::string name() const override { return "path-relink"; }
  bool supports(SeqKind kind) const override {
    return kind == SeqKind::kPermutation || kind == SeqKind::kJobRepetition;
  }

 protected:
  void cross_seq(const Genome&, const Genome&, const GenomeTraits&, Genome&,
                 Genome&, par::Rng&) const override;

 private:
  ProblemPtr problem_;
  int samples_;
};

}  // namespace psga::ga
