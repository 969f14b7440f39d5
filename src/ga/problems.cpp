#include "src/ga/problems.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <string>

namespace psga::ga {

namespace {

std::vector<int> random_permutation(int n, par::Rng& rng) {
  std::vector<int> perm(static_cast<std::size_t>(n));
  std::iota(perm.begin(), perm.end(), 0);
  rng.shuffle(perm);
  return perm;
}

/// Argsort of `keys` written into out[0..keys.size()) — the slice form of
/// keys_to_permutation used by the batched random-key decode, where all B
/// permutations share one index workspace.
void keys_to_permutation_into(std::span<const double> keys,
                              std::span<int> out) {
  std::iota(out.begin(), out.end(), 0);
  std::stable_sort(out.begin(), out.end(), [&](int a, int b) {
    return keys[static_cast<std::size_t>(a)] < keys[static_cast<std::size_t>(b)];
  });
}

}  // namespace

void keys_to_permutation(std::span<const double> keys, std::vector<int>& out) {
  out.resize(keys.size());
  std::iota(out.begin(), out.end(), 0);
  std::stable_sort(out.begin(), out.end(), [&](int a, int b) {
    return keys[static_cast<std::size_t>(a)] < keys[static_cast<std::size_t>(b)];
  });
}

std::vector<int> keys_to_permutation(std::span<const double> keys) {
  std::vector<int> perm;
  keys_to_permutation(keys, perm);
  return perm;
}

void keys_to_repetition_sequence(std::span<const double> keys,
                                 std::span<const int> repeats,
                                 std::vector<int>& perm_scratch,
                                 std::vector<int>& out) {
  // Flat slot -> owning job table, kept in perm_scratch.
  perm_scratch.clear();
  perm_scratch.reserve(keys.size());
  for (int j = 0; j < static_cast<int>(repeats.size()); ++j) {
    for (int k = 0; k < repeats[static_cast<std::size_t>(j)]; ++k) {
      perm_scratch.push_back(j);
    }
  }
  keys_to_permutation(keys, out);
  // Map each argsorted slot to its owner in place (elements independent).
  for (int& slot : out) slot = perm_scratch[static_cast<std::size_t>(slot)];
}

std::vector<int> keys_to_repetition_sequence(std::span<const double> keys,
                                             std::span<const int> repeats) {
  std::vector<int> perm;
  std::vector<int> seq;
  keys_to_repetition_sequence(keys, repeats, perm, seq);
  return seq;
}

// --- FlowShopProblem -------------------------------------------------------

FlowShopProblem::FlowShopProblem(sched::FlowShopInstance inst,
                                 sched::Criterion criterion)
    : inst_(std::move(inst)), pack_(inst_), criterion_(criterion) {
  traits_.seq_kind = SeqKind::kPermutation;
  traits_.seq_length = inst_.jobs;
}

Genome FlowShopProblem::random_genome(par::Rng& rng) const {
  Genome g;
  g.seq = random_permutation(inst_.jobs, rng);
  return g;
}

double FlowShopProblem::objective(const Genome& genome) const {
  return sched::flow_shop_objective(inst_, genome.seq, criterion_);
}

double FlowShopProblem::objective_with(const Genome& genome,
                                       FlowShopEvalScratch& scratch) const {
  return sched::flow_shop_objective(inst_, genome.seq, criterion_, scratch.fs);
}

void FlowShopProblem::objective_batch(GenomeViews genomes,
                                      std::span<double> objectives,
                                      Workspace& workspace) const {
  auto* s = detail::scratch_of<FlowShopEvalScratch>(workspace);
  if (s == nullptr) {
    WorkspaceProblem::objective_batch(genomes, objectives, workspace);
    return;
  }
  s->lanes.clear();
  s->lanes.reserve(genomes.size());
  for (const Genome* g : genomes) s->lanes.emplace_back(g->seq);
  sched::flow_shop_objective_batch(inst_, pack_, s->lanes, criterion_,
                                   objectives, s->batch);
}

// --- RandomKeyFlowShopProblem ----------------------------------------------

RandomKeyFlowShopProblem::RandomKeyFlowShopProblem(sched::FlowShopInstance inst,
                                                   sched::Criterion criterion)
    : inst_(std::move(inst)), pack_(inst_), criterion_(criterion) {
  traits_.seq_kind = SeqKind::kNone;
  traits_.seq_length = 0;
  traits_.key_length = inst_.jobs;
}

Genome RandomKeyFlowShopProblem::random_genome(par::Rng& rng) const {
  Genome g;
  g.keys.resize(static_cast<std::size_t>(inst_.jobs));
  for (auto& k : g.keys) k = rng.uniform();
  return g;
}

std::vector<int> RandomKeyFlowShopProblem::decode(const Genome& genome) const {
  return keys_to_permutation(genome.keys);
}

double RandomKeyFlowShopProblem::objective(const Genome& genome) const {
  return sched::flow_shop_objective(inst_, decode(genome), criterion_);
}

double RandomKeyFlowShopProblem::objective_with(
    const Genome& genome, RandomKeyFlowScratch& scratch) const {
  keys_to_permutation(genome.keys, scratch.perm);
  return sched::flow_shop_objective(inst_, scratch.perm, criterion_,
                                    scratch.fs);
}

void RandomKeyFlowShopProblem::objective_batch(GenomeViews genomes,
                                               std::span<double> objectives,
                                               Workspace& workspace) const {
  auto* s = detail::scratch_of<RandomKeyFlowScratch>(workspace);
  if (s == nullptr) {
    WorkspaceProblem::objective_batch(genomes, objectives, workspace);
    return;
  }
  // Batched argsort: every lane's decoded permutation lands in one shared
  // index workspace, then the SoA kernel advances all lanes at once. Slots
  // are sized by each genome's key count so a malformed genome reaches the
  // kernel's length check instead of reading out of bounds here.
  std::size_t total = 0;
  for (const Genome* g : genomes) total += g->keys.size();
  s->perm_storage.resize(total);
  s->lanes.clear();
  s->lanes.reserve(genomes.size());
  std::size_t offset = 0;
  for (const Genome* g : genomes) {
    const std::span<int> slot(s->perm_storage.data() + offset, g->keys.size());
    keys_to_permutation_into(g->keys, slot);
    s->lanes.emplace_back(slot);
    offset += g->keys.size();
  }
  sched::flow_shop_objective_batch(inst_, pack_, s->lanes, criterion_,
                                   objectives, s->batch);
}

// --- JobShopProblem ---------------------------------------------------------

JobShopProblem::JobShopProblem(sched::JobShopInstance inst, Decoder decoder,
                               sched::Criterion criterion)
    : inst_(std::move(inst)),
      frontier_(inst_, {}, {}),
      routes_(decoder == Decoder::kGifflerThompson ? sched::GtRouteTable(inst_)
                                                   : sched::GtRouteTable()),
      decoder_(decoder),
      criterion_(criterion) {
  traits_.seq_kind = SeqKind::kJobRepetition;
  traits_.seq_length = inst_.total_ops();
  traits_.repeats.reserve(static_cast<std::size_t>(inst_.jobs));
  for (int j = 0; j < inst_.jobs; ++j) {
    traits_.repeats.push_back(inst_.ops_of(j));
  }
}

Genome JobShopProblem::random_genome(par::Rng& rng) const {
  Genome g;
  g.seq = sched::random_operation_sequence(inst_, rng);
  return g;
}

sched::Schedule JobShopProblem::decode(const Genome& genome) const {
  switch (decoder_) {
    case Decoder::kGifflerThompson:
      return sched::giffler_thompson_sequence(inst_, genome.seq);
    case Decoder::kOperationBased:
    default:
      return sched::decode_operation_based(inst_, genome.seq);
  }
}

double JobShopProblem::objective(const Genome& genome) const {
  return sched::job_shop_objective(inst_, decode(genome), criterion_);
}

double JobShopProblem::objective_with(const Genome& genome,
                                      JobShopEvalScratch& scratch) const {
  if (decoder_ == Decoder::kGifflerThompson) {
    const Genome* const view = &genome;
    double value = 0;
    active_objectives(std::span(&view, 1), std::span(&value, 1), scratch);
    return value;
  }
  const auto expected = static_cast<std::size_t>(traits_.seq_length);
  if (genome.seq.size() != expected) {
    throw std::invalid_argument("job-shop operation sequence length " +
                                std::to_string(genome.seq.size()) +
                                " != expected " + std::to_string(expected));
  }
  if (criterion_ == sched::Criterion::kMakespan) {
    return static_cast<double>(
        frontier_.makespan_with(genome.seq, scratch.frontier));
  }
  return sched::evaluate_criterion(
      criterion_, frontier_.completion_times(genome.seq, scratch.frontier),
      inst_.attrs);
}

void JobShopProblem::objective_batch(GenomeViews genomes,
                                     std::span<double> objectives,
                                     Workspace& workspace) const {
  if (decoder_ == Decoder::kGifflerThompson) {
    if (auto* s = detail::scratch_of<JobShopEvalScratch>(workspace)) {
      active_objectives(genomes, objectives, *s);
      return;
    }
  }
  WorkspaceProblem::objective_batch(genomes, objectives, workspace);
}

void JobShopProblem::active_objectives(GenomeViews genomes,
                                       std::span<double> objectives,
                                       JobShopEvalScratch& scratch) const {
  scratch.lanes.clear();
  scratch.lanes.reserve(genomes.size());
  for (const Genome* g : genomes) scratch.lanes.emplace_back(g->seq);
  sched::giffler_thompson_objective_batch(inst_, routes_, scratch.lanes,
                                          criterion_, objectives, scratch.js);
}

// --- OpenShopProblem ---------------------------------------------------------

OpenShopProblem::OpenShopProblem(sched::OpenShopInstance inst,
                                 sched::OpenShopDecoder decoder,
                                 sched::Criterion criterion)
    : inst_(std::move(inst)), decoder_(decoder), criterion_(criterion) {
  traits_.seq_kind = SeqKind::kJobRepetition;
  traits_.seq_length = inst_.jobs * inst_.machines;
  traits_.repeats.assign(static_cast<std::size_t>(inst_.jobs), inst_.machines);
}

Genome OpenShopProblem::random_genome(par::Rng& rng) const {
  Genome g;
  g.seq = sched::random_job_repetition_sequence(inst_, rng);
  return g;
}

double OpenShopProblem::objective(const Genome& genome) const {
  const sched::Schedule schedule =
      sched::decode_open_shop(inst_, genome.seq, decoder_);
  return sched::open_shop_objective(inst_, schedule, criterion_);
}

double OpenShopProblem::objective_with(const Genome& genome,
                                       sched::OpenShopScratch& scratch) const {
  const sched::Schedule& schedule =
      sched::decode_open_shop(inst_, genome.seq, decoder_, scratch);
  return sched::open_shop_objective(inst_, schedule, criterion_, scratch);
}

// --- HybridFlowShopProblem ----------------------------------------------------

HybridFlowShopProblem::HybridFlowShopProblem(sched::HybridFlowShopInstance inst,
                                             sched::CompositeObjective objective)
    : inst_(std::move(inst)), objective_(std::move(objective)) {
  traits_.seq_kind = SeqKind::kPermutation;
  traits_.seq_length = inst_.jobs;
}

Genome HybridFlowShopProblem::random_genome(par::Rng& rng) const {
  Genome g;
  g.seq = random_permutation(inst_.jobs, rng);
  return g;
}

double HybridFlowShopProblem::objective(const Genome& genome) const {
  const sched::Schedule schedule = sched::decode_hybrid_flow_shop(inst_, genome.seq);
  return sched::hybrid_flow_shop_objective(inst_, schedule, objective_);
}

double HybridFlowShopProblem::objective_with(
    const Genome& genome, sched::HybridFlowShopScratch& scratch) const {
  const sched::Schedule& schedule =
      sched::decode_hybrid_flow_shop(inst_, genome.seq, scratch);
  return sched::hybrid_flow_shop_objective(inst_, schedule, objective_,
                                           scratch);
}

double HybridFlowShopProblem::criterion_value(const Genome& genome,
                                              sched::Criterion c) const {
  const sched::Schedule schedule = sched::decode_hybrid_flow_shop(inst_, genome.seq);
  return sched::hybrid_flow_shop_objective(inst_, schedule, c);
}

// --- FlexibleJobShopProblem ----------------------------------------------------

FlexibleJobShopProblem::FlexibleJobShopProblem(
    sched::FlexibleJobShopInstance inst, sched::Criterion criterion)
    : inst_(std::move(inst)), criterion_(criterion) {
  traits_.seq_kind = SeqKind::kJobRepetition;
  traits_.seq_length = inst_.total_ops();
  traits_.repeats.reserve(static_cast<std::size_t>(inst_.jobs));
  for (int j = 0; j < inst_.jobs; ++j) {
    traits_.repeats.push_back(inst_.ops_of(j));
  }
  traits_.assign_domain.reserve(static_cast<std::size_t>(inst_.total_ops()));
  for (int j = 0; j < inst_.jobs; ++j) {
    for (int k = 0; k < inst_.ops_of(j); ++k) {
      traits_.assign_domain.push_back(
          static_cast<int>(inst_.op(j, k).choices.size()));
    }
  }
}

Genome FlexibleJobShopProblem::random_genome(par::Rng& rng) const {
  Genome g;
  g.assign = sched::random_fjs_assignment(inst_, rng);
  g.seq = sched::random_fjs_sequence(inst_, rng);
  return g;
}

double FlexibleJobShopProblem::objective(const Genome& genome) const {
  const sched::Schedule schedule =
      sched::decode_flexible_job_shop(inst_, genome.assign, genome.seq);
  return sched::flexible_job_shop_objective(inst_, schedule, criterion_);
}

double FlexibleJobShopProblem::objective_with(
    const Genome& genome, sched::FlexibleJobShopScratch& scratch) const {
  const sched::Schedule& schedule =
      sched::decode_flexible_job_shop(inst_, genome.assign, genome.seq,
                                      scratch);
  return sched::flexible_job_shop_objective(inst_, schedule, criterion_,
                                            scratch);
}

// --- LotStreamingProblem ----------------------------------------------------

LotStreamingProblem::LotStreamingProblem(sched::LotStreamingInstance inst)
    : inst_(std::move(inst)) {
  traits_.seq_kind = SeqKind::kPermutation;
  traits_.seq_length = inst_.total_sublots();
  traits_.key_length = inst_.total_sublots();
}

Genome LotStreamingProblem::random_genome(par::Rng& rng) const {
  Genome g;
  g.seq = random_permutation(inst_.total_sublots(), rng);
  g.keys.resize(static_cast<std::size_t>(inst_.total_sublots()));
  for (auto& k : g.keys) k = rng.uniform(0.1, 1.0);
  return g;
}

double LotStreamingProblem::objective(const Genome& genome) const {
  return static_cast<double>(
      sched::lot_streaming_makespan(inst_, genome.keys, genome.seq));
}

double LotStreamingProblem::objective_with(
    const Genome& genome, sched::LotStreamingScratch& scratch) const {
  return static_cast<double>(
      sched::lot_streaming_makespan(inst_, genome.keys, genome.seq, scratch));
}

// --- FuzzyFlowShopProblem ----------------------------------------------------

FuzzyFlowShopProblem::FuzzyFlowShopProblem(sched::FuzzyFlowShopInstance inst)
    : inst_(std::move(inst)) {
  traits_.seq_kind = SeqKind::kNone;
  traits_.key_length = inst_.jobs;
}

Genome FuzzyFlowShopProblem::random_genome(par::Rng& rng) const {
  Genome g;
  g.keys.resize(static_cast<std::size_t>(inst_.jobs));
  for (auto& k : g.keys) k = rng.uniform();
  return g;
}

double FuzzyFlowShopProblem::agreement(const Genome& genome) const {
  return sched::mean_agreement(inst_, keys_to_permutation(genome.keys));
}

double FuzzyFlowShopProblem::objective(const Genome& genome) const {
  return 1.0 - agreement(genome);
}

double FuzzyFlowShopProblem::objective_with(const Genome& genome,
                                            FuzzyFlowScratch& scratch) const {
  keys_to_permutation(genome.keys, scratch.perm);
  return 1.0 - sched::mean_agreement(inst_, scratch.perm, scratch.fz);
}

// --- StochasticJobShopProblem ----------------------------------------------------

StochasticJobShopProblem::StochasticJobShopProblem(
    std::shared_ptr<const sched::StochasticJobShop> shop)
    : shop_(std::move(shop)) {
  const auto& nominal = shop_->nominal();
  traits_.seq_kind = SeqKind::kJobRepetition;
  traits_.seq_length = nominal.total_ops();
  traits_.repeats.reserve(static_cast<std::size_t>(nominal.jobs));
  for (int j = 0; j < nominal.jobs; ++j) {
    traits_.repeats.push_back(nominal.ops_of(j));
  }
}

Genome StochasticJobShopProblem::random_genome(par::Rng& rng) const {
  Genome g;
  g.seq = sched::random_operation_sequence(shop_->nominal(), rng);
  return g;
}

double StochasticJobShopProblem::objective(const Genome& genome) const {
  return shop_->expected_makespan(genome.seq);
}

// --- RuleSequenceJobShopProblem ----------------------------------------------

RuleSequenceJobShopProblem::RuleSequenceJobShopProblem(
    sched::JobShopInstance inst, sched::Criterion criterion)
    : inst_(std::move(inst)), criterion_(criterion) {
  traits_.seq_kind = SeqKind::kNone;
  traits_.assign_domain.assign(static_cast<std::size_t>(inst_.total_ops()),
                               sched::kDispatchRuleCount);
}

Genome RuleSequenceJobShopProblem::random_genome(par::Rng& rng) const {
  Genome g;
  g.assign.reserve(traits_.assign_domain.size());
  for (std::size_t i = 0; i < traits_.assign_domain.size(); ++i) {
    g.assign.push_back(static_cast<int>(
        rng.below(static_cast<std::uint64_t>(sched::kDispatchRuleCount))));
  }
  return g;
}

sched::Schedule RuleSequenceJobShopProblem::decode(const Genome& genome) const {
  return sched::giffler_thompson_rules(inst_, genome.assign);
}

double RuleSequenceJobShopProblem::objective(const Genome& genome) const {
  return sched::job_shop_objective(inst_, decode(genome), criterion_);
}

// --- EnergyFlowShopProblem ----------------------------------------------------

EnergyFlowShopProblem::EnergyFlowShopProblem(sched::EnergyAwareFlowShop shop)
    : shop_(std::move(shop)) {
  traits_.seq_kind = SeqKind::kPermutation;
  traits_.seq_length = shop_.instance().jobs;
}

Genome EnergyFlowShopProblem::random_genome(par::Rng& rng) const {
  Genome g;
  g.seq = random_permutation(shop_.instance().jobs, rng);
  return g;
}

double EnergyFlowShopProblem::objective(const Genome& genome) const {
  return shop_.objective(genome.seq);
}

// --- DynamicSuffixProblem ----------------------------------------------------

DynamicSuffixProblem::DynamicSuffixProblem(
    const sched::JobShopInstance* inst, std::vector<int> frozen_prefix,
    std::vector<int> remaining, std::vector<sched::Downtime> downtimes)
    : frontier_(*inst, frozen_prefix, downtimes),
      remaining_(std::move(remaining)) {
  traits_.seq_kind = SeqKind::kJobRepetition;
  traits_.seq_length = static_cast<int>(remaining_.size());
  traits_.repeats.assign(static_cast<std::size_t>(inst->jobs), 0);
  for (int j : remaining_) ++traits_.repeats[static_cast<std::size_t>(j)];
}

DynamicSuffixProblem::DynamicSuffixProblem(
    std::shared_ptr<const sched::JobShopInstance> inst,
    std::vector<int> frozen_prefix, std::vector<int> remaining,
    std::vector<sched::Downtime> downtimes)
    : DynamicSuffixProblem(inst.get(), std::move(frozen_prefix),
                           std::move(remaining), std::move(downtimes)) {}

Genome DynamicSuffixProblem::random_genome(par::Rng& rng) const {
  Genome g;
  g.seq = remaining_;
  rng.shuffle(g.seq);
  return g;
}

double DynamicSuffixProblem::objective(const Genome& genome) const {
  sched::DowntimeFrontier::Scratch scratch;
  return objective_with(genome, scratch);
}

double DynamicSuffixProblem::objective_with(
    const Genome& genome, sched::DowntimeFrontier::Scratch& scratch) const {
  return static_cast<double>(frontier_.makespan_with(genome.seq, scratch));
}

}  // namespace psga::ga
