// Quantum-inspired island GA (Gu et al. [28]).
//
// Each individual is a vector of qubit rotation angles θ_i ∈ (0, π/2); a
// *measurement* collapses it to a classical priority vector (sin²θ plus
// uniform exploration noise) that decodes to a sequencing chromosome via
// the random-keys rule. Evolution follows [28]'s two-level island design:
//   lower level  — quantum rotation gates pull every individual's angles
//                  toward the island's best measured solution, a quantum
//                  segment crossover mixes angle blocks within an island,
//                  and a Not-gate mutation flips θ to π/2 − θ;
//   upper level  — penetration migration: at each epoch the global best
//                  island "penetrates" the others by blending its best
//                  angle vector into their worst individuals
//                  (star-shaped information flow).
#pragma once

#include <memory>
#include <vector>

#include "src/ga/config.h"
#include "src/ga/engine.h"
#include "src/ga/evaluator.h"
#include "src/ga/problem.h"
#include "src/ga/result.h"
#include "src/par/thread_pool.h"

namespace psga::ga {

struct QuantumGaConfig {
  int islands = 4;
  int population = 20;        ///< individuals per island
  int generations = 100;
  double rotation_delta = 0.05;  ///< rotation gate step (radians)
  double measure_noise = 0.35;   ///< initial exploration noise in measurement
  /// Final noise level; the effective noise anneals linearly from
  /// measure_noise to this over the run (exploration → exploitation).
  double measure_noise_final = 0.05;
  double not_gate_rate = 0.05;   ///< per-individual Not-gate probability
  double crossover_rate = 0.4;   ///< quantum segment crossover probability
  int migration_interval = 10;   ///< penetration migration period; 0 = off
  double penetration = 0.5;      ///< blend factor of the penetrating angles
  /// Backend for the per-generation batch evaluation of all measured
  /// individuals (k × population genomes at once).
  EvalBackend eval_backend = EvalBackend::kThreadPool;
  /// Objective memoization for the measured genomes (see
  /// GaConfig::eval_cache); null = off.
  EvalCachePtr eval_cache;
  std::uint64_t seed = 1;
  /// Observability sinks (see GaConfig::metrics/tracer).
  obs::RegistryPtr metrics;
  std::shared_ptr<obs::Tracer> tracer;
};

class QuantumGa : public Engine {
 public:
  QuantumGa(ProblemPtr problem, QuantumGaConfig config,
            par::ThreadPool* pool = nullptr);
  ~QuantumGa() override;

  /// Re-seeds and rebuilds the qubit populations; no measurement happens
  /// until the first step() (evaluates_on_init is false).
  void init() override;
  /// One generation: anneal noise, measure every individual, evaluate the
  /// flat batch, apply rotation/crossover/Not-gate, migrate when due.
  void step() override;
  int generation() const override;
  double best_objective() const override;
  const Genome& best() const override;
  long long evaluations() const override;
  /// The previous generation's measured (collapsed) genomes, island-major.
  int population_size() const override;
  const Genome& individual(int i) const override;
  double objective_of(int i) const override;
  StopCondition stop_default() const override {
    return StopCondition::generations(config_.generations);
  }

  using Engine::run;

 protected:
  void prepare_run(const StopCondition& stop) override;
  bool evaluates_on_init() const override { return false; }
  void fill_sections(RunResult& result) const override;

 private:
  ProblemPtr problem_;
  QuantumGaConfig config_;
  par::ThreadPool* pool_;
  /// Planned horizon of the current run (noise-annealing schedule).
  int planned_generations_;
  /// Evaluates every generation's flat batch of measurements; built once,
  /// so its cache persists across runs.
  Evaluator evaluator_;
  long long evaluations_baseline_ = 0;

  struct State;
  std::unique_ptr<State> state_;
};

}  // namespace psga::ga
