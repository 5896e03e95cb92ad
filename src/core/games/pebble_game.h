#ifndef FMTK_CORE_GAMES_PEBBLE_GAME_H_
#define FMTK_CORE_GAMES_PEBBLE_GAME_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "base/result.h"
#include "core/games/game_engine.h"
#include "structures/structure.h"

namespace fmtk {

/// The k-pebble, r-round Ehrenfeucht–Fraïssé game characterizing the
/// k-variable fragment FO^k: the spoiler may *move* pebbles rather than only
/// adding them, modelling variable reuse. With r rounds it captures
/// agreement on FO^k formulas of quantifier rank ≤ r.
///
/// The plain EF game is the special case where pebbles are never reused
/// (k >= r), which the test suite cross-checks.
///
/// Runs on the search core shared with EfGameSolver
/// (game_engine::GameSearch) and adds only the pebble move rules: lift a
/// pebble, then re-pin it, pass, or place it on a fresh element. Two
/// pebble-specific canonicalizations collapse the state space — both proved
/// in DESIGN.md:
///  - the game value depends only on the *set* of distinct pinned pairs
///    (pebble names, duplicate placements, and free pebbles are
///    interchangeable), so boards are keyed by their pair-set hash;
///  - a pebble on a duplicated pair behaves exactly like a free pebble, so
///    only one free-equivalent pebble is expanded per node, and moving a
///    free-equivalent pebble onto an already-pinned element (a "pass") is
///    never useful for the spoiler.
class PebbleGameSolver {
 public:
  /// The structures must outlive the solver and have equal signatures.
  /// `pebbles` >= 1.
  PebbleGameSolver(const Structure& a, const Structure& b,
                   std::size_t pebbles, GameOptions options = {});

  /// Temporaries would dangle — bind the structures to locals first.
  PebbleGameSolver(Structure&&, const Structure&, std::size_t,
                   GameOptions = {}) = delete;
  PebbleGameSolver(const Structure&, Structure&&, std::size_t,
                   GameOptions = {}) = delete;
  PebbleGameSolver(Structure&&, Structure&&, std::size_t,
                   GameOptions = {}) = delete;

  /// Does the duplicator survive `rounds` rounds of the `pebbles`-pebble
  /// game from the empty board?
  Result<bool> DuplicatorWins(std::size_t rounds);

  std::uint64_t nodes_explored() const { return stats().nodes_explored; }

  /// Cumulative search counters (nodes, transposition hits, pruned moves).
  const GameStats& stats() const { return core_.stats(); }

 private:
  // A board: per pebble, an optional (a, b) placement. Carried alongside
  // the canonical pair-set position because move enumeration is per pebble.
  using Board = std::vector<std::optional<std::pair<Element, Element>>>;
  using Context = game_engine::SearchContext<Board>;

  // Decides ctx.position (with ctx.state as the board) with `rounds`
  // remaining.
  Result<bool> Wins(Context& ctx, std::size_t rounds);
  // All spoiler targets for lifted pebble p; `was_unique` says whether the
  // lift removed a pair from the board set (enabling re-pin moves onto
  // pinned elements; otherwise those are skipped as passes).
  Result<bool> AllTargetsSurvivable(Context& ctx, std::size_t rounds_left,
                                    std::size_t p, bool was_unique);
  // Pebble p goes on the pair (x, y), already on ctx.position: does the
  // duplicator win the rest?
  Result<bool> Place(Context& ctx, std::size_t rounds_left, std::size_t p,
                     Element x, Element y);

  std::size_t pebbles_;
  game_engine::GameSearch core_;
};

}  // namespace fmtk

#endif  // FMTK_CORE_GAMES_PEBBLE_GAME_H_
