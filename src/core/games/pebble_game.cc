#include "core/games/pebble_game.h"

#include "base/check.h"

namespace fmtk {

PebbleGameSolver::PebbleGameSolver(const Structure& a, const Structure& b,
                                   std::size_t pebbles, GameOptions options)
    : pebbles_(pebbles), core_(a, b, options, "pebble game") {
  FMTK_CHECK(pebbles_ >= 1) << "at least one pebble required";
}

Result<bool> PebbleGameSolver::Wins(Context& ctx, std::size_t rounds) {
  return core_.Node(ctx, rounds, [&]() -> Result<bool> {
    bool tried_free = false;
    for (std::size_t p = 0; p < pebbles_; ++p) {
      const std::optional<std::pair<Element, Element>> placement =
          ctx.state[p];
      // A pebble on a duplicated pair is interchangeable with a free pebble
      // (lifting either leaves the pair set unchanged), so one
      // representative of the free-equivalent pebbles decides them all.
      const bool unique = placement.has_value() &&
                          ctx.position.CountOfA(placement->first) == 1;
      if (!unique) {
        if (tried_free) {
          core_.CountPruned();
          continue;
        }
        tried_free = true;
      }
      if (placement.has_value()) {
        ctx.position.Remove(placement->first, placement->second);
        ctx.state[p] = std::nullopt;
      }
      Result<bool> all = AllTargetsSurvivable(ctx, rounds - 1, p, unique);
      if (placement.has_value()) {
        ctx.state[p] = placement;
        const bool restored =
            ctx.position.TryAdd(placement->first, placement->second);
        FMTK_CHECK(restored) << "restoring a lifted pebble must succeed";
      }
      if (!all.ok() || !*all) {
        return all;
      }
    }
    return true;
  });
}

Result<bool> PebbleGameSolver::AllTargetsSurvivable(Context& ctx,
                                                    std::size_t rounds_left,
                                                    std::size_t p,
                                                    bool was_unique) {
  return core_.ForEachSpoilerMove(
      ctx,
      [&](bool in_a, Element s) -> Result<bool> {
        if (!was_unique) {
          // A free-equivalent pebble onto a pinned element is a pass: the
          // forced reply leaves the pair set unchanged with fewer rounds,
          // which by round monotonicity never helps the spoiler.
          core_.CountPruned();
          return true;
        }
        // Lifting a unique holder shrank the set; re-pinning onto a still
        // pinned element is a real move (the set stays smaller), and any
        // reply other than s's existing partner breaks the position.
        const Element x = in_a ? s : ctx.position.PreimageOf(s);
        const Element y = in_a ? ctx.position.ImageOf(s) : s;
        const bool added = ctx.position.TryAdd(x, y);
        FMTK_CHECK(added) << "re-pinning an existing pair must succeed";
        Result<bool> wins = Place(ctx, rounds_left, p, x, y);
        ctx.position.Remove(x, y);
        return wins;
      },
      [&](bool in_a, Element s) {
        // Pebble p onto unpinned s: a winning duplicator response must
        // exist.
        return core_.FindResponse(ctx, in_a, s, [&](Element x, Element y) {
          return Place(ctx, rounds_left, p, x, y);
        });
      });
}

Result<bool> PebbleGameSolver::Place(Context& ctx, std::size_t rounds_left,
                                     std::size_t p, Element x, Element y) {
  ctx.state[p] = std::make_pair(x, y);
  Result<bool> wins = Wins(ctx, rounds_left);
  ctx.state[p] = std::nullopt;
  return wins;
}

Result<bool> PebbleGameSolver::DuplicatorWins(std::size_t rounds) {
  return core_.SolveRoot(
      {}, rounds, Board(pebbles_),
      [this](Context& ctx, std::size_t r) { return Wins(ctx, r); });
}

}  // namespace fmtk
