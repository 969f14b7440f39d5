#include "src/ga/island_cluster.h"

#include <algorithm>
#include <chrono>
#include <mutex>
#include <stdexcept>

namespace psga::ga {

namespace {

constexpr int kTagNeighbor = 1;
constexpr int kTagBroadcast = 2;
constexpr int kTagConsensus = 3;

par::Message pack(const Genome& genome, double objective, int tag) {
  par::Message msg;
  msg.tag = tag;
  msg.ints.reserve(genome.seq.size() + genome.assign.size() + 2);
  msg.ints.push_back(static_cast<std::int64_t>(genome.seq.size()));
  msg.ints.push_back(static_cast<std::int64_t>(genome.assign.size()));
  for (int v : genome.seq) msg.ints.push_back(v);
  for (int v : genome.assign) msg.ints.push_back(v);
  msg.doubles.reserve(genome.keys.size() + 1);
  msg.doubles.push_back(objective);
  for (double k : genome.keys) msg.doubles.push_back(k);
  return msg;
}

void unpack(const par::Message& msg, Genome& genome, double& objective) {
  const auto seq_len = static_cast<std::size_t>(msg.ints[0]);
  const auto assign_len = static_cast<std::size_t>(msg.ints[1]);
  genome.seq.assign(msg.ints.begin() + 2,
                    msg.ints.begin() + 2 + static_cast<std::ptrdiff_t>(seq_len));
  genome.assign.assign(
      msg.ints.begin() + 2 + static_cast<std::ptrdiff_t>(seq_len),
      msg.ints.begin() + 2 + static_cast<std::ptrdiff_t>(seq_len + assign_len));
  objective = msg.doubles[0];
  genome.keys.assign(msg.doubles.begin() + 1, msg.doubles.end());
}

}  // namespace

ClusterIslandGa::ClusterIslandGa(ProblemPtr problem, ClusterIslandConfig config)
    : problem_(std::move(problem)),
      config_(std::move(config)),
      // One cache across ranks: neighbor/broadcast migrants are verbatim
      // clones, and memoized objectives are pure values, so the sharing
      // is deterministic exactly like the in-process island engine's.
      cache_(EvalCache::make(config_.base.eval_cache,
                             config_.base.shared_eval_cache)) {
  obs::ensure_registry(config_.base.metrics);
  attach_obs(config_.base.metrics, config_.base.tracer);
  migrants_ = &config_.base.metrics->counter("engine.migrants");
}

void ClusterIslandGa::step() {
  throw std::logic_error(
      "ClusterIslandGa has no step boundary (ranks are threads); use run()");
}

const Genome& ClusterIslandGa::individual(int) const {
  throw std::out_of_range("ClusterIslandGa has no inspectable population");
}

double ClusterIslandGa::objective_of(int) const {
  throw std::out_of_range("ClusterIslandGa has no inspectable population");
}

RunResult ClusterIslandGa::run(const StopCondition& stop) {
  const auto start = std::chrono::steady_clock::now();
  par::Cluster cluster(config_.ranks);
  RunResult result;
  IslandSection section;
  section.best.assign(static_cast<std::size_t>(config_.ranks), 0.0);
  section.best_genome.resize(static_cast<std::size_t>(config_.ranks));
  section.surviving = config_.ranks;

  std::mutex result_mutex;
  long long total_evaluations = 0;
  int max_generations_run = 0;

  // Cache counters are snapshotted so result.cache is this run's delta
  // even when the cache is shared or the engine reruns.
  const EvalCacheStats cache_baseline =
      cache_ != nullptr ? cache_->stats() : EvalCacheStats{};
  // Mirror the base run loop's per-run metrics delta (this engine
  // overrides run() wholesale).
  const obs::MetricsSnapshot metrics_baseline = metrics_->snapshot();

  par::Rng root(config_.base.seed);
  std::vector<std::uint64_t> rank_seeds;
  rank_seeds.reserve(static_cast<std::size_t>(config_.ranks));
  for (int r = 0; r < config_.ranks; ++r) {
    rank_seeds.push_back(root.split(static_cast<std::uint64_t>(r + 1))());
  }

  // Stop conditions beyond the generation budget need a per-generation
  // consensus so every rank leaves the collective pattern at the same
  // generation (a rank breaking alone would deadlock its neighbors).
  const bool consensus_needed = stop.max_seconds > 0.0 ||
                                stop.target_objective >= 0.0 ||
                                stop.max_evaluations > 0 ||
                                stop.stagnation_generations > 0;

  cluster.run([&](par::Rank& rank) {
    // Ranks are concurrent threads; inner_engine_config keeps their
    // evaluation off the shared pool — serial on-rank.
    GaConfig cfg = inner_engine_config(config_.base, cache_);
    cfg.seed = rank_seeds[static_cast<std::size_t>(rank.id())];
    cfg.termination = stop;
    SimpleGa island(problem_, cfg);
    island.init();

    const int generations = stop.max_generations;
    const int right = (rank.id() + 1) % rank.size();
    double stagnation_best = island.best_objective();
    int stagnant = 0;
    int gen = 1;
    for (; gen <= generations; ++gen) {
      island.step();
      if (island.best_objective() < stagnation_best) {
        stagnation_best = island.best_objective();
        stagnant = 0;
      } else {
        ++stagnant;
      }
      // GN: ship my best to my ring neighbor, receive from my left.
      if (config_.neighbor_interval > 0 && gen % config_.neighbor_interval == 0 &&
          rank.size() > 1) {
        const int best = island.best_index();
        rank.send(right, pack(island.population()[static_cast<std::size_t>(best)],
                              island.objectives()[static_cast<std::size_t>(best)],
                              kTagNeighbor));
        const par::Message incoming = rank.recv(kTagNeighbor);
        Genome migrant;
        double objective;
        unpack(incoming, migrant, objective);
        island.replace_individual(island.worst_index(), migrant, objective);
        migrants_->add();
      }
      // LN: everyone broadcasts its best to all ([33], GN << LN).
      if (config_.broadcast_interval > 0 &&
          gen % config_.broadcast_interval == 0 && rank.size() > 1) {
        const int best = island.best_index();
        const auto all = rank.allgather(
            pack(island.population()[static_cast<std::size_t>(best)],
                 island.objectives()[static_cast<std::size_t>(best)],
                 kTagBroadcast),
            kTagBroadcast);
        // Adopt the single best incoming migrant.
        int best_source = -1;
        double best_obj = island.best_objective();
        for (int src = 0; src < rank.size(); ++src) {
          if (src == rank.id()) continue;
          if (all[static_cast<std::size_t>(src)].doubles[0] < best_obj) {
            best_obj = all[static_cast<std::size_t>(src)].doubles[0];
            best_source = src;
          }
        }
        if (best_source >= 0) {
          Genome migrant;
          double objective;
          unpack(all[static_cast<std::size_t>(best_source)], migrant, objective);
          island.replace_individual(island.worst_index(), migrant, objective);
          migrants_->add();
        }
        rank.barrier();  // keep epochs aligned so tags never mix
      }
      // Consensus stop vote: any rank over budget (or at target) ends the
      // run for everyone at the same generation.
      if (consensus_needed) {
        const double elapsed =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          start)
                .count();
        par::Message vote_msg;
        vote_msg.tag = kTagConsensus;
        const bool vote =
            (stop.max_seconds > 0.0 && elapsed >= stop.max_seconds) ||
            (stop.target_objective >= 0.0 &&
             island.best_objective() <= stop.target_objective) ||
            (stop.stagnation_generations > 0 &&
             stagnant >= stop.stagnation_generations);
        vote_msg.ints = {vote ? 1 : 0, island.evaluations()};
        const auto votes = rank.allgather(std::move(vote_msg), kTagConsensus);
        bool any_vote = false;
        long long cluster_evaluations = 0;
        for (const auto& v : votes) {
          any_vote = any_vote || v.ints[0] != 0;
          cluster_evaluations += v.ints[1];
        }
        if (any_vote || (stop.max_evaluations > 0 &&
                         cluster_evaluations >= stop.max_evaluations)) {
          break;
        }
      }
    }

    std::lock_guard lock(result_mutex);
    section.best[static_cast<std::size_t>(rank.id())] =
        island.best_objective();
    section.best_genome[static_cast<std::size_t>(rank.id())] = island.best();
    total_evaluations += island.evaluations();
    max_generations_run = std::max(max_generations_run, island.generation());
  });

  // The first minimum in rank order, so tied ranks resolve the same way
  // whatever order their threads finished in.
  const auto best = static_cast<std::size_t>(std::distance(
      section.best.begin(),
      std::min_element(section.best.begin(), section.best.end())));
  result.best = section.best_genome[best];
  result.best_objective = section.best[best];
  result.evaluations = total_evaluations;
  result.generations = max_generations_run;
  result.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  result.islands = std::move(section);
  if (cache_ != nullptr) {
    EvalCacheStats stats = cache_->stats();
    stats -= cache_baseline;
    result.cache = stats;
  } else {
    result.cache = EvalCacheStats{};
  }
  {
    obs::MetricsSnapshot snapshot = metrics_->snapshot();
    snapshot.subtract(metrics_baseline);
    snapshot.set_counter("eval.cache.hits",
                         static_cast<std::uint64_t>(result.cache->hits));
    snapshot.set_counter("eval.cache.misses",
                         static_cast<std::uint64_t>(result.cache->misses));
    snapshot.set_counter("eval.cache.inserts",
                         static_cast<std::uint64_t>(result.cache->inserts));
    snapshot.set_counter("eval.cache.evictions",
                         static_cast<std::uint64_t>(result.cache->evictions));
    result.metrics = std::move(snapshot);
  }
  last_ = result;
  return result;
}

RunResult run_cluster_island_ga(ProblemPtr problem,
                                const ClusterIslandConfig& config) {
  ClusterIslandGa engine(std::move(problem), config);
  return engine.run();
}

}  // namespace psga::ga
