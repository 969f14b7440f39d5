// The Problem interface binds a shop-scheduling instance + decoder +
// optimality criterion to the GA engines. Objectives are MINIMIZED; the
// engines convert them to fitness with one of the survey's transforms
// (objectives.h, Eq. 1/2).
//
// Evaluation is batched: engines hand whole populations to
// psga::ga::Evaluator, which calls objective_batch() once per worker lane
// with a lane-private Workspace, over views of the genomes it must decode
// (slots whose objective the engine already holds never get here). Heavy
// decoders keep their schedule scratch (matrices, frontier vectors, the
// decoded Schedule itself) inside the Workspace so it is allocated once
// per run instead of once per genome.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "src/ga/genome.h"
#include "src/par/rng.h"

namespace psga::ga {

/// Reusable per-worker evaluation scratch. Problems with allocation-heavy
/// decoders subclass this; the base class is an empty tag for stateless
/// objectives. A Workspace is owned by exactly one evaluator lane and is
/// never shared across threads.
class Workspace {
 public:
  virtual ~Workspace() = default;
};

/// Genomes handed to a batch decode: each entry points at a genome that
/// the caller keeps alive for the call.
using GenomeViews = std::span<const Genome* const>;

class Problem {
 public:
  virtual ~Problem() = default;

  /// Structural description of valid genomes (operators rely on it).
  virtual const GenomeTraits& traits() const = 0;

  /// Uniformly random valid genome.
  virtual Genome random_genome(par::Rng& rng) const = 0;

  /// Objective value to minimize. Must be pure (no RNG, no observable
  /// state): the evaluator runs batches concurrently and the engines
  /// promise identical results for any thread count.
  virtual double objective(const Genome& genome) const = 0;

  /// Fresh evaluation scratch for one worker lane. The default is the
  /// stateless tag; problems with reusable decode buffers override it.
  virtual std::unique_ptr<Workspace> make_workspace() const {
    return std::make_unique<Workspace>();
  }

  /// Objective with reusable scratch. `workspace` is always one obtained
  /// from this problem's make_workspace(). The default ignores it.
  virtual double objective(const Genome& genome, Workspace& workspace) const {
    (void)workspace;
    return objective(genome);
  }

  /// Batch entry point: fills objectives[i] = objective(*genomes[i])
  /// using one shared Workspace for the lane's whole slice (the Evaluator
  /// makes one call per lane). The genomes come as views, so the
  /// Evaluator hands over the slots it must decode without copying a
  /// genome. The default loop is correct for every problem; override only
  /// to exploit cross-genome structure.
  virtual void objective_batch(GenomeViews genomes,
                               std::span<double> objectives,
                               Workspace& workspace) const {
    for (std::size_t i = 0; i < genomes.size(); ++i) {
      objectives[i] = objective(*genomes[i], workspace);
    }
  }
};

using ProblemPtr = std::shared_ptr<const Problem>;

/// One view per genome of `genomes`, in order: a whole population as
/// objective_batch takes it.
inline std::vector<const Genome*> views_of(std::span<const Genome> genomes) {
  std::vector<const Genome*> views;
  views.reserve(genomes.size());
  for (const Genome& genome : genomes) views.push_back(&genome);
  return views;
}

}  // namespace psga::ga
