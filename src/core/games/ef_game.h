#ifndef FMTK_CORE_GAMES_EF_GAME_H_
#define FMTK_CORE_GAMES_EF_GAME_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "base/result.h"
#include "core/games/game_engine.h"
#include "structures/isomorphism.h"
#include "structures/structure.h"

namespace fmtk {

/// The n-round Ehrenfeucht–Fraïssé game G_n(A, B) of the survey, solved
/// exactly by memoized minimax search over game positions.
///
/// Rules: each round the spoiler picks a structure and an element of it; the
/// duplicator picks an element of the other structure. The duplicator wins
/// when after n rounds the map a_i -> b_i (together with the constants) is a
/// partial isomorphism. `DuplicatorWins(n)` decides A ∼Gn B, which by the
/// fundamental theorem equals A ≡n B (cross-validated against
/// RankTypeIndex in the test suite).
///
/// The search runs on game_engine::GameSearch, shared with
/// PebbleGameSolver: a transposition table persistent across queries (so
/// SpoilerNeeds' iterative deepening reuses shallow results), incremental
/// partial-isomorphism maintenance, and swap-class pruning of spoiler moves
/// and duplicator responses. This class adds only the EF move rule: every
/// unpinned spoiler representative must have a surviving response.
///
/// Exact game solving is still exponential in the number of rounds — the
/// "combinatorially heavy" cost the survey warns about; use
/// LinearOrdersEquivalent / RankTypeIndex for the structured shortcuts.
class EfGameSolver {
 public:
  /// The structures must outlive the solver and have equal signatures.
  EfGameSolver(const Structure& a, const Structure& b,
               GameOptions options = {});

  /// Temporaries would dangle — bind the structures to locals first.
  EfGameSolver(Structure&&, const Structure&, GameOptions = {}) = delete;
  EfGameSolver(const Structure&, Structure&&, GameOptions = {}) = delete;
  EfGameSolver(Structure&&, Structure&&, GameOptions = {}) = delete;

  /// Does the duplicator have a winning strategy in the `rounds`-round game
  /// starting from `initial` (pairs already on the board)?
  Result<bool> DuplicatorWins(std::size_t rounds,
                              const PartialMap& initial = {});

  /// The least number of rounds in which the spoiler can force a win, or
  /// nullopt when the duplicator survives even max_rounds rounds.
  Result<std::optional<std::size_t>> SpoilerNeeds(std::size_t max_rounds);

  /// One round of an adversarially played game.
  struct PlayStep {
    bool spoiler_in_a = true;   // Which structure the spoiler chose.
    Element spoiler = 0;        // The element the spoiler picked.
    std::optional<Element> duplicator;  // Best response (nullopt: none).
  };

  /// A transcript of optimal play over `rounds` rounds: the spoiler plays a
  /// winning strategy when one exists (and the transcript ends in a broken
  /// position); otherwise the spoiler plays arbitrarily and the duplicator's
  /// winning responses are shown.
  Result<std::vector<PlayStep>> AdversarialPlay(std::size_t rounds);

  std::uint64_t nodes_explored() const { return stats().nodes_explored; }

  /// Cumulative search counters (nodes, transposition hits, pruned moves).
  const GameStats& stats() const { return core_.stats(); }

 private:
  using Context = game_engine::SearchContext<>;

  // Decides the game value of ctx.position with `rounds` remaining.
  Result<bool> Wins(Context& ctx, std::size_t rounds);

  // Finds the duplicator response to a spoiler move that survives longest;
  // wins==true responses preferred. (Transcript construction only.)
  struct BestResponse {
    std::optional<Element> element;
    bool wins = false;
  };
  Result<BestResponse> RespondTo(std::size_t rounds_left, bool spoiler_in_a,
                                 Element spoiler_element,
                                 const PartialMap& position);

  const Structure& a_;
  const Structure& b_;
  game_engine::GameSearch core_;
};

}  // namespace fmtk

#endif  // FMTK_CORE_GAMES_EF_GAME_H_
