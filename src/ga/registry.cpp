#include "src/ga/registry.h"

#include <charconv>
#include <stdexcept>
#include <string_view>

namespace psga::ga {

SelectionPtr make_selection(const std::string& name) {
  if (name == "roulette") return std::make_shared<RouletteSelection>();
  if (name == "sus") return std::make_shared<StochasticUniversalSelection>();
  if (name == "rank") return std::make_shared<RankSelection>();
  if (name == "elitist-roulette") {
    return std::make_shared<ElitistRouletteSelection>();
  }
  if (name.rfind("tournament", 0) == 0) {
    // tournament<k>: k is a whole positive integer; a bare "tournament"
    // means k = 2.
    const std::string_view arg = std::string_view(name).substr(10);
    int k = 2;
    if (!arg.empty()) {
      const auto [end, error] =
          std::from_chars(arg.data(), arg.data() + arg.size(), k);
      if (error != std::errc{} || end != arg.data() + arg.size() || k <= 0) {
        throw std::invalid_argument(
            "selection: tournament size must be a positive integer: " + name);
      }
    }
    return std::make_shared<TournamentSelection>(k);
  }
  throw std::invalid_argument("unknown selection: " + name);
}

CrossoverPtr make_crossover(const std::string& name) {
  if (name == "one-point") return std::make_shared<OnePointOrderCrossover>();
  if (name == "two-point") return std::make_shared<TwoPointOrderCrossover>();
  if (name == "pmx") return std::make_shared<PmxCrossover>();
  if (name == "ox") return std::make_shared<OxCrossover>();
  if (name == "cycle") return std::make_shared<CycleCrossover>();
  if (name == "position-based") return std::make_shared<PositionBasedCrossover>();
  if (name == "jox") return std::make_shared<JoxCrossover>();
  if (name == "ppx") return std::make_shared<PpxCrossover>();
  if (name == "thx") return std::make_shared<ThxCrossover>();
  if (name == "uniform-keys") return std::make_shared<UniformKeyCrossover>();
  if (name == "arithmetic-keys") {
    return std::make_shared<ArithmeticKeyCrossover>();
  }
  throw std::invalid_argument("unknown crossover: " + name);
}

MutationPtr make_mutation(const std::string& name) {
  if (name == "swap") return std::make_shared<SwapMutation>();
  if (name == "shift") return std::make_shared<ShiftMutation>();
  if (name == "inversion") return std::make_shared<InversionMutation>();
  if (name == "scramble") return std::make_shared<ScrambleMutation>();
  if (name == "assign") return std::make_shared<AssignMutation>();
  if (name == "key-creep") return std::make_shared<KeyCreepMutation>();
  if (name == "key-reset") return std::make_shared<KeyResetMutation>();
  throw std::invalid_argument("unknown mutation: " + name);
}

std::vector<std::string> crossover_names(SeqKind kind) {
  switch (kind) {
    case SeqKind::kPermutation:
      return {"one-point", "two-point", "pmx",           "ox",
              "cycle",     "jox",       "position-based", "ppx",
              "thx"};
    case SeqKind::kJobRepetition:
      return {"one-point", "two-point", "jox", "ppx", "thx"};
    case SeqKind::kNone:
      return {"uniform-keys", "arithmetic-keys"};
  }
  return {};
}

std::vector<std::string> sequence_mutation_names() {
  return {"swap", "shift", "inversion", "scramble"};
}

}  // namespace psga::ga
