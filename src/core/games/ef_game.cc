#include "core/games/ef_game.h"

namespace fmtk {

namespace {

bool Pinned(const PartialMap& map, bool in_a, Element e) {
  for (const auto& [x, y] : map) {
    if ((in_a ? x : y) == e) {
      return true;
    }
  }
  return false;
}

}  // namespace

EfGameSolver::EfGameSolver(const Structure& a, const Structure& b,
                           GameOptions options)
    : a_(a), b_(b), core_(a, b, options, "EF game") {}

Result<bool> EfGameSolver::Wins(Context& ctx, std::size_t rounds) {
  // Every spoiler representative needs a response that wins the rest.
  return core_.Node(ctx, rounds, [&] {
    return core_.ForEachSpoilerRepresentative(
        ctx, [&](bool in_a, Element s) {
          return core_.FindResponse(ctx, in_a, s, [&](Element, Element) {
            return Wins(ctx, rounds - 1);
          });
        });
  });
}

Result<bool> EfGameSolver::DuplicatorWins(std::size_t rounds,
                                          const PartialMap& initial) {
  return core_.SolveRoot(
      initial, rounds, game_engine::NoState{},
      [this](Context& ctx, std::size_t r) { return Wins(ctx, r); });
}

Result<std::optional<std::size_t>> EfGameSolver::SpoilerNeeds(
    std::size_t max_rounds) {
  for (std::size_t r = 0; r <= max_rounds; ++r) {
    FMTK_ASSIGN_OR_RETURN(bool duplicator_wins, DuplicatorWins(r));
    if (!duplicator_wins) {
      return std::optional<std::size_t>(r);
    }
  }
  return std::optional<std::size_t>(std::nullopt);
}

Result<EfGameSolver::BestResponse> EfGameSolver::RespondTo(
    std::size_t rounds_left, bool spoiler_in_a, Element spoiler_element,
    const PartialMap& position) {
  const Structure& to = spoiler_in_a ? b_ : a_;
  BestResponse best;
  bool best_survives = false;
  for (Element d = 0; d < to.domain_size(); ++d) {
    PartialMap next = position;
    next.emplace_back(spoiler_in_a ? spoiler_element : d,
                      spoiler_in_a ? d : spoiler_element);
    const bool survives = IsPartialIsomorphism(a_, b_, next);
    bool wins = false;
    if (survives) {
      FMTK_ASSIGN_OR_RETURN(wins, DuplicatorWins(rounds_left, next));
    }
    if (wins) {
      return BestResponse{d, true};
    }
    // Losing either way: prefer a response that at least keeps the board a
    // partial isomorphism (survives this round).
    if (!best.element.has_value() || (survives && !best_survives)) {
      best.element = d;
      best_survives = survives;
    }
  }
  return best;
}

Result<std::vector<EfGameSolver::PlayStep>> EfGameSolver::AdversarialPlay(
    std::size_t rounds) {
  std::vector<PlayStep> transcript;
  PartialMap position;
  if (!game_engine::NullaryRelationsAgree(a_, b_)) {
    return transcript;  // Already broken before any move.
  }
  for (std::size_t c = 0; c < a_.signature().constant_count(); ++c) {
    std::optional<Element> ca = a_.constant(c);
    std::optional<Element> cb = b_.constant(c);
    if (ca.has_value() != cb.has_value()) {
      return transcript;  // Already broken before any move.
    }
    if (ca.has_value()) {
      position.emplace_back(*ca, *cb);
    }
  }
  for (std::size_t round = 0; round < rounds; ++round) {
    const std::size_t remaining = rounds - round;
    // The spoiler looks for a move with no winning duplicator response.
    std::optional<PlayStep> chosen;
    for (int side = 0; side < 2 && !chosen.has_value(); ++side) {
      const bool in_a = (side == 0);
      const Structure& from = in_a ? a_ : b_;
      for (Element s = 0; s < from.domain_size(); ++s) {
        if (Pinned(position, in_a, s)) {
          continue;
        }
        FMTK_ASSIGN_OR_RETURN(BestResponse response,
                              RespondTo(remaining - 1, in_a, s, position));
        if (!response.wins) {
          chosen = PlayStep{in_a, s, response.element};
          break;
        }
      }
    }
    if (!chosen.has_value()) {
      // No winning spoiler move exists; the spoiler plays the first fresh
      // element (arbitrary play) and the duplicator answers optimally.
      for (int side = 0; side < 2 && !chosen.has_value(); ++side) {
        const bool in_a = (side == 0);
        const Structure& from = in_a ? a_ : b_;
        for (Element s = 0; s < from.domain_size(); ++s) {
          if (!Pinned(position, in_a, s)) {
            FMTK_ASSIGN_OR_RETURN(BestResponse response,
                                  RespondTo(remaining - 1, in_a, s, position));
            chosen = PlayStep{in_a, s, response.element};
            break;
          }
        }
      }
    }
    if (!chosen.has_value()) {
      break;  // Both structures exhausted; nothing left to play.
    }
    transcript.push_back(*chosen);
    if (!chosen->duplicator.has_value()) {
      break;  // Duplicator cannot answer at all (empty structure).
    }
    position.emplace_back(
        chosen->spoiler_in_a ? chosen->spoiler : *chosen->duplicator,
        chosen->spoiler_in_a ? *chosen->duplicator : chosen->spoiler);
    if (!IsPartialIsomorphism(a_, b_, position)) {
      break;  // The board is broken; the game is decided.
    }
  }
  return transcript;
}

}  // namespace fmtk
