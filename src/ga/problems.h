// Concrete Problem adapters, one per shop model in src/sched.
#pragma once

#include <cassert>
#include <memory>
#include <utility>

#include "src/ga/problem.h"
#include "src/sched/batch_decode.h"
#include "src/sched/dynamic.h"
#include "src/sched/energy.h"
#include "src/sched/flexible_job_shop.h"
#include "src/sched/flow_shop.h"
#include "src/sched/fuzzy.h"
#include "src/sched/hybrid_flow_shop.h"
#include "src/sched/job_shop.h"
#include "src/sched/lot_streaming.h"
#include "src/sched/open_shop.h"
#include "src/sched/stochastic.h"

namespace psga::ga {

namespace detail {

/// Typed per-worker scratch carrier: each heavy problem hands the
/// evaluator a ScratchWorkspace over its sched-layer scratch struct, and
/// the workspace entry points recover it via dynamic_cast (falling back
/// to the allocating path if handed a foreign workspace).
template <typename S>
class ScratchWorkspace final : public Workspace {
 public:
  S scratch;
};

template <typename S>
S* scratch_of(Workspace& workspace) {
  auto* typed = dynamic_cast<ScratchWorkspace<S>*>(&workspace);
  // A mismatch means make_workspace() and objective() disagree on the
  // scratch type — a programming error, not a runtime condition; the
  // release fallback to the allocating path stays correct but slow.
  assert(typed != nullptr && "workspace type mismatch");
  return typed != nullptr ? &typed->scratch : nullptr;
}

}  // namespace detail

/// CRTP mixin deduplicating the workspace plumbing every heavy problem
/// used to repeat: make_workspace() produces a ScratchWorkspace<Scratch>,
/// and the workspace/batch objective entry points dispatch to
/// `Derived::objective_with(genome, Scratch&)` with the typed scratch
/// resolved once per batch. Derived still implements the allocating
/// `objective(genome)` (the fallback for foreign workspaces) and may
/// override objective_batch to exploit cross-genome structure.
template <typename Derived, typename Scratch>
class WorkspaceProblem : public Problem {
 public:
  std::unique_ptr<Workspace> make_workspace() const final {
    return std::make_unique<detail::ScratchWorkspace<Scratch>>();
  }

  double objective(const Genome& genome, Workspace& workspace) const final {
    if (auto* s = detail::scratch_of<Scratch>(workspace)) {
      return derived().objective_with(genome, *s);
    }
    return derived().objective(genome);
  }

  void objective_batch(std::span<const Genome> genomes,
                       std::span<double> objectives,
                       Workspace& workspace) const override {
    // Resolve the typed scratch once per batch, not once per genome.
    if (auto* s = detail::scratch_of<Scratch>(workspace)) {
      for (std::size_t i = 0; i < genomes.size(); ++i) {
        objectives[i] = derived().objective_with(genomes[i], *s);
      }
      return;
    }
    Problem::objective_batch(genomes, objectives, workspace);
  }

 private:
  const Derived& derived() const {
    return static_cast<const Derived&>(*this);
  }
};

/// Flow-shop evaluation scratch, capacity only: the scalar buffers plus
/// the SoA batch scratch and the per-batch lane views handed to the
/// batch kernel.
struct FlowShopEvalScratch {
  sched::FlowShopScratch fs;
  sched::FlowShopBatchScratch batch;
  std::vector<std::span<const int>> lanes;
};

/// Permutation flow shop under any single criterion.
class FlowShopProblem final
    : public WorkspaceProblem<FlowShopProblem, FlowShopEvalScratch> {
 public:
  FlowShopProblem(sched::FlowShopInstance inst,
                  sched::Criterion criterion = sched::Criterion::kMakespan);

  const GenomeTraits& traits() const override { return traits_; }
  Genome random_genome(par::Rng& rng) const override;
  using WorkspaceProblem::objective;
  double objective(const Genome& genome) const override;
  double objective_with(const Genome& genome,
                        FlowShopEvalScratch& scratch) const;
  void objective_batch(std::span<const Genome> genomes,
                       std::span<double> objectives,
                       Workspace& workspace) const override;

  const sched::FlowShopInstance& instance() const { return inst_; }

 private:
  sched::FlowShopInstance inst_;
  sched::FlowShopPack pack_;  ///< the batch kernels' view of inst_
  sched::Criterion criterion_;
  GenomeTraits traits_;
};

/// Random-key scratch: the decoded permutation plus the flow-shop buffers
/// and the shared batch workspaces (perm_storage holds all B decoded
/// permutations of a batch, an Evaluator lane's whole slice, back to
/// back — the shared index workspace the batched argsort writes into).
struct RandomKeyFlowScratch {
  std::vector<int> perm;
  sched::FlowShopScratch fs;
  std::vector<int> perm_storage;
  std::vector<std::span<const int>> lanes;
  sched::FlowShopBatchScratch batch;
};

/// Flow shop on random keys (Bean-style: permutation = argsort(keys)),
/// the encoding of Huang et al. [24].
class RandomKeyFlowShopProblem final
    : public WorkspaceProblem<RandomKeyFlowShopProblem, RandomKeyFlowScratch> {
 public:
  RandomKeyFlowShopProblem(
      sched::FlowShopInstance inst,
      sched::Criterion criterion = sched::Criterion::kMakespan);

  const GenomeTraits& traits() const override { return traits_; }
  Genome random_genome(par::Rng& rng) const override;
  using WorkspaceProblem::objective;
  double objective(const Genome& genome) const override;
  double objective_with(const Genome& genome,
                        RandomKeyFlowScratch& scratch) const;
  void objective_batch(std::span<const Genome> genomes,
                       std::span<double> objectives,
                       Workspace& workspace) const override;

  /// The decoded permutation (exposed for inspection).
  std::vector<int> decode(const Genome& genome) const;

 private:
  sched::FlowShopInstance inst_;
  sched::FlowShopPack pack_;  ///< the batch kernels' view of inst_
  sched::Criterion criterion_;
  GenomeTraits traits_;
};

/// Job-shop evaluation scratch, capacity only: the Giffler–Thompson
/// buffers, the semi-active replay's frontier copy and the per-batch
/// sequence views handed to the Giffler–Thompson batch entry.
struct JobShopEvalScratch {
  sched::JobShopScratch js;
  sched::DowntimeFrontier::Scratch frontier;
  std::vector<std::span<const int>> lanes;
};

/// Job shop with either the semi-active operation-based decoder or the
/// Giffler–Thompson active decoder. Semi-active genomes are evaluated by
/// replaying a window-free DowntimeFrontier built once from the instance;
/// active ones go through sched::giffler_thompson_objective_batch over a
/// route table built once from the instance, without a Schedule.
class JobShopProblem final
    : public WorkspaceProblem<JobShopProblem, JobShopEvalScratch> {
 public:
  enum class Decoder { kOperationBased, kGifflerThompson };

  JobShopProblem(sched::JobShopInstance inst,
                 Decoder decoder = Decoder::kOperationBased,
                 sched::Criterion criterion = sched::Criterion::kMakespan);

  const GenomeTraits& traits() const override { return traits_; }
  Genome random_genome(par::Rng& rng) const override;
  using WorkspaceProblem::objective;
  double objective(const Genome& genome) const override;
  /// Throws std::invalid_argument on a sequence whose length is not the
  /// instance's operation count, and for the active decoder on any
  /// sequence giffler_thompson_sequence rejects.
  double objective_with(const Genome& genome,
                        JobShopEvalScratch& scratch) const;
  /// The active decoder hands the whole slice to the batch entry, which
  /// decodes four genomes in lockstep on the register path.
  void objective_batch(std::span<const Genome> genomes,
                       std::span<double> objectives,
                       Workspace& workspace) const override;

  const sched::JobShopInstance& instance() const { return inst_; }
  sched::Schedule decode(const Genome& genome) const;
  /// Active genomes decode on the Giffler–Thompson register kernel (the
  /// instance fits it and the CPU has AVX-512F and BMI).
  bool decodes_in_registers() const { return routes_.registers; }

 private:
  /// The active decoder's one entry: giffler_thompson_objective_batch.
  void active_objectives(std::span<const Genome> genomes,
                         std::span<double> objectives,
                         JobShopEvalScratch& scratch) const;

  sched::JobShopInstance inst_;
  sched::DowntimeFrontier frontier_;  ///< no prefix, no windows
  sched::GtRouteTable routes_;  ///< built for the active decoder only
  Decoder decoder_;
  sched::Criterion criterion_;
  GenomeTraits traits_;
};

/// Open shop with the LPT-Task or LPT-Machine chromosome decoder ([32]).
class OpenShopProblem final
    : public WorkspaceProblem<OpenShopProblem, sched::OpenShopScratch> {
 public:
  OpenShopProblem(sched::OpenShopInstance inst,
                  sched::OpenShopDecoder decoder =
                      sched::OpenShopDecoder::kLptTask,
                  sched::Criterion criterion = sched::Criterion::kMakespan);

  const GenomeTraits& traits() const override { return traits_; }
  Genome random_genome(par::Rng& rng) const override;
  using WorkspaceProblem::objective;
  double objective(const Genome& genome) const override;
  double objective_with(const Genome& genome,
                        sched::OpenShopScratch& scratch) const;

  const sched::OpenShopInstance& instance() const { return inst_; }

 private:
  sched::OpenShopInstance inst_;
  sched::OpenShopDecoder decoder_;
  sched::Criterion criterion_;
  GenomeTraits traits_;
};

/// Hybrid flow shop (job permutation genome), single or composite
/// criterion — the composite form is the weighted bi-objective of
/// Rashidi et al. [38].
class HybridFlowShopProblem final
    : public WorkspaceProblem<HybridFlowShopProblem,
                              sched::HybridFlowShopScratch> {
 public:
  HybridFlowShopProblem(
      sched::HybridFlowShopInstance inst,
      sched::CompositeObjective objective = {
          {{sched::Criterion::kMakespan, 1.0}}});

  const GenomeTraits& traits() const override { return traits_; }
  Genome random_genome(par::Rng& rng) const override;
  using WorkspaceProblem::objective;
  double objective(const Genome& genome) const override;
  double objective_with(const Genome& genome,
                        sched::HybridFlowShopScratch& scratch) const;

  /// Evaluates a single criterion of the decoded schedule (Pareto
  /// reporting needs the components separately).
  double criterion_value(const Genome& genome, sched::Criterion c) const;

  const sched::HybridFlowShopInstance& instance() const { return inst_; }

 private:
  sched::HybridFlowShopInstance inst_;
  sched::CompositeObjective objective_;
  GenomeTraits traits_;
};

/// Flexible job shop: assignment + sequencing chromosomes ([36]).
class FlexibleJobShopProblem final
    : public WorkspaceProblem<FlexibleJobShopProblem,
                              sched::FlexibleJobShopScratch> {
 public:
  FlexibleJobShopProblem(
      sched::FlexibleJobShopInstance inst,
      sched::Criterion criterion = sched::Criterion::kMakespan);

  const GenomeTraits& traits() const override { return traits_; }
  Genome random_genome(par::Rng& rng) const override;
  using WorkspaceProblem::objective;
  double objective(const Genome& genome) const override;
  double objective_with(const Genome& genome,
                        sched::FlexibleJobShopScratch& scratch) const;

  const sched::FlexibleJobShopInstance& instance() const { return inst_; }

 private:
  sched::FlexibleJobShopInstance inst_;
  sched::Criterion criterion_;
  GenomeTraits traits_;
};

/// Lot-streaming flexible flow shop: keys (sublot splits) + sublot
/// sequencing permutation ([35]).
class LotStreamingProblem final
    : public WorkspaceProblem<LotStreamingProblem, sched::LotStreamingScratch> {
 public:
  explicit LotStreamingProblem(sched::LotStreamingInstance inst);

  const GenomeTraits& traits() const override { return traits_; }
  Genome random_genome(par::Rng& rng) const override;
  using WorkspaceProblem::objective;
  double objective(const Genome& genome) const override;
  double objective_with(const Genome& genome,
                        sched::LotStreamingScratch& scratch) const;

  const sched::LotStreamingInstance& instance() const { return inst_; }

 private:
  sched::LotStreamingInstance inst_;
  GenomeTraits traits_;
};

/// Fuzzy flow-shop scratch: the decoded permutation plus the fuzzy
/// recurrence buffers (reused across every genome of a batch).
struct FuzzyFlowScratch {
  std::vector<int> perm;
  sched::FuzzyFlowShopScratch fz;
};

/// Fuzzy flow shop on random keys (Huang et al. [24]): minimize
/// 1 - mean agreement index between fuzzy completion times and fuzzy due
/// dates (i.e. maximize agreement).
class FuzzyFlowShopProblem final
    : public WorkspaceProblem<FuzzyFlowShopProblem, FuzzyFlowScratch> {
 public:
  explicit FuzzyFlowShopProblem(sched::FuzzyFlowShopInstance inst);

  const GenomeTraits& traits() const override { return traits_; }
  Genome random_genome(par::Rng& rng) const override;
  using WorkspaceProblem::objective;
  double objective(const Genome& genome) const override;
  double objective_with(const Genome& genome, FuzzyFlowScratch& scratch) const;

  /// Mean agreement index of a genome (the maximized quantity).
  double agreement(const Genome& genome) const;

 private:
  sched::FuzzyFlowShopInstance inst_;
  GenomeTraits traits_;
};

/// Stochastic job shop under the expected-value model ([28]).
class StochasticJobShopProblem final : public Problem {
 public:
  explicit StochasticJobShopProblem(
      std::shared_ptr<const sched::StochasticJobShop> shop);

  const GenomeTraits& traits() const override { return traits_; }
  Genome random_genome(par::Rng& rng) const override;
  double objective(const Genome& genome) const override;

 private:
  std::shared_ptr<const sched::StochasticJobShop> shop_;
  GenomeTraits traits_;
};

/// Job shop under the survey's INDIRECT encoding (Section III.A /
/// Cheng et al. [12]): the chromosome is a sequence of dispatching-rule
/// ids, one per Giffler–Thompson conflict resolution, carried on the
/// assignment channel (domain = kDispatchRuleCount per position).
class RuleSequenceJobShopProblem final : public Problem {
 public:
  explicit RuleSequenceJobShopProblem(
      sched::JobShopInstance inst,
      sched::Criterion criterion = sched::Criterion::kMakespan);

  const GenomeTraits& traits() const override { return traits_; }
  Genome random_genome(par::Rng& rng) const override;
  double objective(const Genome& genome) const override;

  sched::Schedule decode(const Genome& genome) const;

 private:
  sched::JobShopInstance inst_;
  sched::Criterion criterion_;
  GenomeTraits traits_;
};

/// Energy-aware flow shop (Section II, [8][9]): weighted makespan +
/// total energy + peak power on a job permutation.
class EnergyFlowShopProblem final : public Problem {
 public:
  explicit EnergyFlowShopProblem(sched::EnergyAwareFlowShop shop);

  const GenomeTraits& traits() const override { return traits_; }
  Genome random_genome(par::Rng& rng) const override;
  double objective(const Genome& genome) const override;

  const sched::EnergyAwareFlowShop& shop() const { return shop_; }

 private:
  sched::EnergyAwareFlowShop shop_;
  GenomeTraits traits_;
};

/// Reactive re-optimization problem for dynamic scheduling (Section II,
/// [9]): the genome orders the not-yet-started operations; the objective
/// is the realized makespan of frozen-prefix + suffix under downtimes.
/// The prefix is decoded once, at construction, into a
/// sched::DowntimeFrontier; each evaluation replays only the suffix from
/// it on lane scratch.
class DynamicSuffixProblem final
    : public WorkspaceProblem<DynamicSuffixProblem,
                              sched::DowntimeFrontier::Scratch> {
 public:
  DynamicSuffixProblem(const sched::JobShopInstance* inst,
                       std::vector<int> frozen_prefix,
                       std::vector<int> remaining,
                       std::vector<sched::Downtime> downtimes);

  /// Owning variant for registry-built problems (problem=dynamic-jobshop).
  /// The problem keeps no reference to the instance in either form.
  DynamicSuffixProblem(std::shared_ptr<const sched::JobShopInstance> inst,
                       std::vector<int> frozen_prefix,
                       std::vector<int> remaining,
                       std::vector<sched::Downtime> downtimes);

  const GenomeTraits& traits() const override { return traits_; }
  Genome random_genome(par::Rng& rng) const override;
  using WorkspaceProblem::objective;
  double objective(const Genome& genome) const override;
  double objective_with(const Genome& genome,
                        sched::DowntimeFrontier::Scratch& scratch) const;

 private:
  sched::DowntimeFrontier frontier_;
  std::vector<int> remaining_;
  GenomeTraits traits_;
};

/// Decodes random keys into the permutation argsort(keys) (stable).
std::vector<int> keys_to_permutation(std::span<const double> keys);

/// Allocation-free variant: fills `out` (resized to keys.size()).
void keys_to_permutation(std::span<const double> keys, std::vector<int>& out);

/// Decodes random keys into a job-repetition sequence: argsort(keys) over
/// flat op slots, slot i belonging to the job that owns the i-th flat op.
std::vector<int> keys_to_repetition_sequence(std::span<const double> keys,
                                             std::span<const int> repeats);

/// Allocation-free variant (aside from a per-call argsort buffer reuse
/// through `perm_scratch`): fills `out` with the repetition sequence.
void keys_to_repetition_sequence(std::span<const double> keys,
                                 std::span<const int> repeats,
                                 std::vector<int>& perm_scratch,
                                 std::vector<int>& out);

}  // namespace psga::ga
