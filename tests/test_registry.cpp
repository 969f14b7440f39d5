#include "src/ga/registry.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

namespace psga::ga {
namespace {

TEST(Registry, AllSelectionsResolve) {
  for (const char* name :
       {"roulette", "sus", "tournament2", "tournament5", "rank",
        "elitist-roulette"}) {
    const SelectionPtr sel = make_selection(name);
    ASSERT_NE(sel, nullptr) << name;
  }
  EXPECT_EQ(make_selection("tournament7")->name(), "tournament7");
  EXPECT_EQ(make_selection("tournament")->name(), "tournament2");
}

TEST(Registry, AllCrossoversResolve) {
  for (const char* name :
       {"one-point", "two-point", "pmx", "ox", "cycle", "position-based",
        "jox", "ppx", "thx", "uniform-keys", "arithmetic-keys"}) {
    const CrossoverPtr cx = make_crossover(name);
    ASSERT_NE(cx, nullptr) << name;
    EXPECT_EQ(cx->name(), name);
  }
}

TEST(Registry, AllMutationsResolve) {
  for (const char* name : {"swap", "shift", "inversion", "scramble", "assign",
                           "key-creep", "key-reset"}) {
    const MutationPtr mut = make_mutation(name);
    ASSERT_NE(mut, nullptr) << name;
    EXPECT_EQ(mut->name(), name);
  }
}

TEST(Registry, UnknownNamesThrow) {
  EXPECT_THROW(make_selection("bogus"), std::invalid_argument);
  EXPECT_THROW(make_crossover("bogus"), std::invalid_argument);
  EXPECT_THROW(make_mutation("bogus"), std::invalid_argument);
}

TEST(Registry, MalformedTournamentSizeNamesTheToken) {
  // Only a whole positive integer may follow "tournament": no stray
  // suffix, no overflow, no k <= 0 silently running as uniform picks.
  for (const std::string name :
       {"tournamentx", "tournament99999999999", "tournament0",
        "tournament-3", "tournament3x"}) {
    try {
      make_selection(name);
      ADD_FAILURE() << name << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(name), std::string::npos)
          << name << ": " << e.what();
    } catch (const std::exception& e) {
      ADD_FAILURE() << name << " threw a non-invalid_argument: " << e.what();
    }
  }
}

TEST(Registry, CrossoverNameListsAreUsable) {
  for (SeqKind kind : {SeqKind::kPermutation, SeqKind::kJobRepetition,
                       SeqKind::kNone}) {
    const auto names = crossover_names(kind);
    EXPECT_FALSE(names.empty());
    for (const auto& name : names) {
      const CrossoverPtr cx = make_crossover(name);
      EXPECT_TRUE(cx->supports(kind)) << name;
    }
  }
}

TEST(Registry, SequenceMutationListResolves) {
  for (const auto& name : sequence_mutation_names()) {
    EXPECT_NE(make_mutation(name), nullptr);
  }
}

}  // namespace
}  // namespace psga::ga
