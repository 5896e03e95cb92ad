#ifndef FMTK_CORE_GAMES_GAME_ENGINE_H_
#define FMTK_CORE_GAMES_GAME_ENGINE_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "base/bitset.h"
#include "base/flat_hash.h"
#include "base/result.h"
#include "structures/isomorphism.h"
#include "structures/relation.h"
#include "structures/structure.h"

namespace fmtk {

/// Search counters shared by the EF and pebble game solvers. Cumulative
/// across queries on one solver (like nodes_explored always was).
struct GameStats {
  /// Game positions actually expanded by the minimax search. Transposition
  /// hits and moves rejected before expansion are counted separately.
  std::uint64_t nodes_explored = 0;
  /// Positions answered from the transposition table.
  std::uint64_t table_hits = 0;
  /// Moves skipped without expanding a child: symmetry-collapsed spoiler
  /// moves and duplicator responses, replays of pinned elements, and
  /// responses rejected by the incremental partial-isomorphism check.
  std::uint64_t moves_pruned = 0;
};

/// Options bounding the exact game search; both solvers take them.
struct GameOptions {
  /// Abort with ResourceExhausted after this many game positions.
  std::uint64_t max_nodes = 20'000'000;
};

namespace game_engine {

using fmtk::BuildOccurrenceLists;

/// signature hash -> bitset of the elements carrying it, where an element's
/// signature hashes AtomicInvariantOf(s, e): equal for elements matched by
/// any isomorphism, comparable across structures over one signature.
using SignatureBuckets = FlatU64Map<ElementBitset>;

/// Partitions the domain into *swap classes*: e and f share a class iff the
/// transposition (e f) is an automorphism of `s` and neither element
/// interprets a constant. Transpositions conjugate — (a c) = (a b)(b c)(a b)
/// — so this is a genuine equivalence relation. Elements interpreting
/// constants get singleton classes. Returns class ids in [0, class count);
/// `num_classes` (when non-null) receives the count.
std::vector<std::uint32_t> SwapClasses(const Structure& s,
                                       const OccurrenceLists& occ,
                                       std::uint32_t* num_classes = nullptr);

/// Deterministic per-pair 64-bit hash codes (Zobrist table) for positions of
/// a game on structures of the given domain sizes. Position hashes are the
/// *sum* of the codes of the distinct pairs on the board, so they are
/// insensitive to play order and cheap to update incrementally. (Sum, not
/// xor: the pebble game also needs "multiset with duplicates collapsed"
/// semantics, and additive hashing composes with reference counting.)
class ZobristTable {
 public:
  ZobristTable(std::size_t a_domain, std::size_t b_domain);

  std::uint64_t PairCode(Element x, Element y) const {
    return codes_[static_cast<std::size_t>(x) * b_domain_ + y];
  }

 private:
  std::size_t b_domain_;
  std::vector<std::uint64_t> codes_;
};

/// Packs (position hash, rounds remaining) into one well-mixed 64-bit
/// transposition-table key. Rounds participate in full width — the seed
/// solver's one-char key famously wrapped at 256 rounds.
std::uint64_t TranspositionKey(std::uint64_t position_hash,
                               std::size_t rounds);

/// A game position (partial map A → B) maintained incrementally: O(1)
/// pinned-element lookup, reference counts for replayed pairs, a running
/// Zobrist hash, and pair insertion that validates only the tuples touching
/// the new pair (everything else was checked when it was added). The
/// validation maps each such tuple into one scratch row owned by the state,
/// so TryAdd allocates nothing.
///
/// Nullary relations are invisible to the incremental check (no tuple
/// contains a new element); GameSearch pre-checks them once per search via
/// NullaryRelationsAgree.
class PositionState {
 public:
  /// All referenced objects must outlive the state.
  PositionState(const Structure& a, const Structure& b,
                const OccurrenceLists* occ_a, const OccurrenceLists* occ_b,
                const ZobristTable* zobrist);

  /// Adds one instance of the pair (x, y) if the extended map is still a
  /// partial isomorphism; returns false (state unchanged) otherwise.
  /// Replaying an existing pair always succeeds and only bumps its count.
  bool TryAdd(Element x, Element y);

  /// Removes one instance of (x, y); the pair must be present.
  void Remove(Element x, Element y);

  bool PinnedInA(Element x) const { return a_map_[x] != kUnmapped; }
  bool PinnedInB(Element y) const { return b_map_[y] != kUnmapped; }
  /// kUnmapped when x is not pinned.
  Element ImageOf(Element x) const { return a_map_[x]; }
  Element PreimageOf(Element y) const { return b_map_[y]; }
  /// How many instances of the pair containing x (on the A side) are on the
  /// board; 0 when x is unpinned.
  std::uint32_t CountOfA(Element x) const { return a_count_[x]; }

  /// Order-insensitive hash of the distinct-pair set.
  std::uint64_t hash() const { return hash_; }
  std::size_t distinct_pairs() const { return distinct_; }

 private:
  // Checks the tuples touching x (in A) and y (in B) with the pair (x, y)
  // already entered in a_map_ / b_map_.
  bool NewPairRespectsRelations(Element x, Element y);

  const Structure* a_;
  const Structure* b_;
  const OccurrenceLists* occ_a_;
  const OccurrenceLists* occ_b_;
  const ZobristTable* zobrist_;
  std::vector<Element> a_map_;   // a_map_[x] = image of x, or kUnmapped
  std::vector<Element> b_map_;   // b_map_[y] = preimage of y, or kUnmapped
  std::vector<std::uint32_t> a_count_;  // instances of x's pair
  std::vector<std::uint32_t> b_count_;  // instances of y's pair
  std::vector<Element> scratch_;  // one row of the widest relation
  std::uint64_t hash_ = 0;
  std::size_t distinct_ = 0;
};

/// True when every nullary (arity-0) relation holds in `a` iff it holds in
/// `b`. A mismatch breaks *every* position, including the empty one; the
/// incremental check above cannot see it, so GameSearch tests this once.
bool NullaryRelationsAgree(const Structure& a, const Structure& b);

/// The solver-specific part of a SearchContext for a game without one.
struct NoState {};

/// One search's mutable state: the incrementally maintained position and
/// the solver's own per-search state (the pebble game's board).
template <typename State = NoState>
struct SearchContext {
  PositionState position;
  [[no_unique_address]] State state;
};

/// The search machinery of the EF and pebble solvers. Each solver owns one
/// and supplies only its move rules, as callables that the templates below
/// inline — the per-node path has no virtual call and no std::function.
///
/// The core owns the per-solver tables (occurrence lists, swap classes,
/// element signatures and their buckets, Zobrist codes, the nullary check),
/// the transposition table (persistent across queries, so iterative
/// deepening reuses shallow results) and GameStats, whose nodes_explored is
/// the node counter the cap is charged against. It seeds constants, probes
/// the table and charges the node cap at each node's head, and enumerates
/// spoiler representatives and duplicator responses.
///
/// The per-node path allocates nothing: swap-class marks live in one
/// buffer with two slots per search depth (spoiler moves, duplicator
/// responses), grown only when the search first reaches a new depth, and
/// the partial-isomorphism check writes into PositionState's scratch row.
class GameSearch {
 public:
  /// The structures must outlive the search and have equal signatures.
  /// `game` names the game in messages ("EF game").
  GameSearch(const Structure& a, const Structure& b, GameOptions options,
             const char* game);

  /// Cumulative search counters (nodes, transposition hits, pruned moves).
  const GameStats& stats() const { return stats_; }

  /// Decides the `rounds`-round game from `initial` plus the constants in a
  /// fresh context carrying `state`; `wins(ctx, r)` decides a position with
  /// r rounds to play.
  template <typename State, typename Wins>
  Result<bool> SolveRoot(const PartialMap& initial, std::size_t rounds,
                         State state, Wins&& wins);

  /// Decides ctx.position with `rounds` to play. No rounds left is a win
  /// (positions are kept partial isomorphisms); a transposition hit answers
  /// from the table; otherwise the node is charged against the cap and
  /// `expand()` decides it, and its verdict enters the table.
  template <typename Ctx, typename Expand>
  Result<bool> Node(Ctx& ctx, std::size_t rounds, Expand&& expand);

  /// Visits the spoiler's moves from ctx.position, side A then side B,
  /// elements ascending. A pinned element goes to `on_pinned(in_a, s)`. Of
  /// unpinned elements swapped by an automorphism (which fixes every pinned
  /// element) one representative decides all, so only the first of each
  /// swap class goes to `on_move(in_a, s)` and the rest count as pruned.
  /// Stops at the first callback returning false or an error and returns
  /// it; true when every call returned true.
  template <typename Ctx, typename OnPinned, typename OnMove>
  Result<bool> ForEachSpoilerMove(Ctx& ctx, OnPinned&& on_pinned,
                                  OnMove&& on_move);

  /// ForEachSpoilerMove where pinned elements are pruned: replaying one
  /// changes nothing.
  template <typename Ctx, typename OnMove>
  Result<bool> ForEachSpoilerRepresentative(Ctx& ctx, OnMove&& on_move) {
    return ForEachSpoilerMove(
        ctx,
        [this](bool, Element) -> Result<bool> {
          CountPruned();
          return true;
        },
        on_move);
  }

  /// Does the duplicator have an answer to spoiler element `s` (in A when
  /// `in_a`)? Each candidate pair (x, y) that keeps the board a partial
  /// isomorphism is put on the board for `play(x, y)`, which decides the
  /// rest of the game, and taken off again. Stops at the first winning
  /// answer or error.
  template <typename Ctx, typename Play>
  Result<bool> FindResponse(Ctx& ctx, bool in_a, Element s, Play&& play);

  /// Counts one move skipped without expanding a child.
  void CountPruned() { ++stats_.moves_pruned; }

 private:
  // One structure's immutable search tables.
  struct Side {
    std::size_t domain_size = 0;
    OccurrenceLists occ;
    std::vector<std::uint32_t> swap_class;
    std::uint32_t num_classes = 0;
    std::vector<std::size_t> sig;
    SignatureBuckets buckets;
  };
  static Side BuildSide(const Structure& s);

  // Offset into marks_ of the current depth's slot `which` (0 = spoiler
  // moves, 1 = duplicator responses), its first `count` marks cleared.
  // Callers index marks_ by offset: a nested Node may grow the buffer.
  std::size_t ClearedMarks(int which, std::size_t count);

  // Seeds the constants and `initial` into `position`; false when the
  // nullary check fails or the board is already broken (the spoiler wins
  // outright).
  bool SeedPosition(PositionState& position, const PartialMap& initial) const;
  Status NodeCapExceeded() const;

  const Structure& a_;
  const Structure& b_;
  GameOptions options_;
  const char* game_;
  Side sides_[2];  // [0] = A, [1] = B
  ZobristTable zobrist_;
  bool nullary_ok_;

  FlatU64Map<bool> table_;
  GameStats stats_;

  // Swap-class marks: slot (2·(depth − 1) + which) spans mark_stride_ (the
  // larger class count) bytes. depth_ counts the Node expansions under way.
  std::vector<std::uint8_t> marks_;
  std::size_t mark_stride_;
  std::size_t depth_ = 0;
};

template <typename State, typename Wins>
Result<bool> GameSearch::SolveRoot(const PartialMap& initial,
                                   std::size_t rounds, State state,
                                   Wins&& wins) {
  SearchContext<State> ctx{
      PositionState(a_, b_, &sides_[0].occ, &sides_[1].occ, &zobrist_),
      std::move(state)};
  if (!SeedPosition(ctx.position, initial)) {
    return false;
  }
  return wins(ctx, rounds);
}

template <typename Ctx, typename Expand>
Result<bool> GameSearch::Node(Ctx& ctx, std::size_t rounds, Expand&& expand) {
  if (rounds == 0) {
    return true;
  }
  const std::uint64_t key = TranspositionKey(ctx.position.hash(), rounds);
  if (const bool* cached = table_.Find(key)) {
    ++stats_.table_hits;
    return *cached;
  }
  if (++stats_.nodes_explored > options_.max_nodes) {
    return NodeCapExceeded();
  }
  if (marks_.size() < 2 * (depth_ + 1) * mark_stride_) {
    marks_.resize(2 * (depth_ + 1) * mark_stride_);
  }
  ++depth_;
  Result<bool> duplicator_wins = expand();
  --depth_;  // On the error path too.
  if (duplicator_wins.ok()) {
    table_.TryEmplace(key, *duplicator_wins);
  }
  return duplicator_wins;
}

template <typename Ctx, typename OnPinned, typename OnMove>
Result<bool> GameSearch::ForEachSpoilerMove(Ctx& ctx, OnPinned&& on_pinned,
                                            OnMove&& on_move) {
  for (int side = 0; side < 2; ++side) {
    const bool in_a = side == 0;
    const Side& from = sides_[side];
    const std::size_t seen = ClearedMarks(0, from.num_classes);
    for (Element s = 0; s < from.domain_size; ++s) {
      bool go_on = true;
      if (in_a ? ctx.position.PinnedInA(s) : ctx.position.PinnedInB(s)) {
        FMTK_ASSIGN_OR_RETURN(go_on, on_pinned(in_a, s));
      } else if (marks_[seen + from.swap_class[s]]) {
        CountPruned();
      } else {
        marks_[seen + from.swap_class[s]] = 1;
        FMTK_ASSIGN_OR_RETURN(go_on, on_move(in_a, s));
      }
      if (!go_on) {
        return false;
      }
    }
  }
  return true;
}

template <typename Ctx, typename Play>
Result<bool> GameSearch::FindResponse(Ctx& ctx, bool in_a, Element s,
                                      Play&& play) {
  const Side& to = sides_[in_a ? 1 : 0];
  // The response-side elements sharing the spoiler element's signature;
  // null when no element over there carries it.
  const ElementBitset* match =
      to.buckets.Find(sides_[in_a ? 0 : 1].sig[s]);
  const std::size_t seen = ClearedMarks(1, to.num_classes);
  std::optional<Result<bool>> decided;
  // Returns true when the search is decided (winning response or error).
  auto consider = [&](Element d) -> bool {
    // A pinned response breaks injectivity; an already-seen class is
    // decided by its representative (same automorphism argument as for
    // spoiler moves); a TryAdd failure is a broken (losing) response.
    if (in_a ? ctx.position.PinnedInB(d) : ctx.position.PinnedInA(d)) {
      CountPruned();
      return false;
    }
    if (marks_[seen + to.swap_class[d]]) {
      CountPruned();
      return false;
    }
    marks_[seen + to.swap_class[d]] = 1;
    const Element x = in_a ? s : d;
    const Element y = in_a ? d : s;
    if (!ctx.position.TryAdd(x, y)) {
      CountPruned();
      return false;
    }
    Result<bool> wins = play(x, y);
    ctx.position.Remove(x, y);
    if (!wins.ok() || *wins) {
      decided = std::move(wins);
      return true;
    }
    return false;
  };
  // Signature-matching candidates first: when a winning response exists it
  // usually looks like the spoiler's element, so it is found before the
  // losing candidates burn nodes. Swap classes are signature-homogeneous,
  // so the two passes never split a class. Both passes visit elements
  // ascending.
  if (match != nullptr &&
      match->ForEachSetBitUntil(
          [&](std::size_t d) { return consider(static_cast<Element>(d)); })) {
    return *std::move(decided);
  }
  for (Element d = 0; d < to.domain_size; ++d) {
    if (match != nullptr && match->Test(d)) {
      continue;  // The bucket pass already considered it.
    }
    if (consider(d)) {
      return *std::move(decided);
    }
  }
  return false;
}

}  // namespace game_engine
}  // namespace fmtk

#endif  // FMTK_CORE_GAMES_GAME_ENGINE_H_
