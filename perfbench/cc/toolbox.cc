// toolbox: the survey's proof tools run offline, one thread, no planner or
// server, ParallelPolicy off. EF and pebble games (core.games), Hanf and
// Gaifman locality plus the bounded-degree evaluator (core.locality,
// core.algorithmic), and distinguishing sentences. Every verdict has a
// closed form or a second route to check it against.
#include <algorithm>
#include <cstdio>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <optional>

#include "core/algorithmic/bounded_degree.h"
#include "core/games/ef_game.h"
#include "core/games/hintikka.h"
#include "core/games/linear_order.h"
#include "core/games/pebble_game.h"
#include "core/locality/gaifman_local.h"
#include "core/locality/hanf.h"
#include "core/locality/locality_engine.h"
#include "core/locality/neighborhood.h"
#include "core/types/rank_type.h"
#include "eval/model_check.h"
#include "gen.h"
#include "logic/parser.h"
#include "queries/relation_query.h"
#include "structures/generators.h"
#include "workloads.h"

namespace perfbench {
namespace {

using fmtk::Structure;

// The traced run executes this many operations, so counters repeat exactly.
constexpr std::size_t kTracedOps = 600;

// This single-threaded, cache-resident workload is the one outside load
// slows most: on a shared host it comes and goes over seconds and slows
// whole stretches of a run by up to a half. So the measured phase runs
// whole deck passes and reports over the fastest of them (FastestPasses);
// 12 passes hold enough samples for every class's tail.
constexpr std::size_t kMinKeptPasses = 12;

enum Class { kGame = 0, kLocality, kDistinguishClass, kClassCount };

enum Kind {
  kEfLinear3 = 0,  // EF, L_m vs L_n, 3 rounds (Thm 3.1 threshold 7)
  kEfLinear4,      // EF, L_m vs L_n, 4 rounds (below threshold 15)
  kEfCycles,       // EF, C_m vs C_m+1, 2-3 rounds
  kPebble2,        // 2-pebble game on cycles
  kPebble3,        // 3-pebble game on cycles, 3 rounds
  kHanfCycles,     // two m-cycles vs one 2m-cycle at radius r
  kHanfLollipop,   // chain(2m) vs path(m) + cycle(m) at radius r
  kHanfRadius,     // LargestHanfRadius of the cycle pair
  kGaifmanTc,      // FindGaifmanViolation of TC on a chain
  kBoundedDegree,  // BoundedDegreeEvaluator on cycles and grids
  kDistinguish,    // DistinguishingSentence on small cycle / order pairs
};
const std::vector<std::string>& KindNames() {
  static const std::vector<std::string> names = {
      "ef_linear3", "ef_linear4", "ef_cycles",  "pebble2",       "pebble3",
      "hanf_cycles", "hanf_lollipop", "hanf_radius", "gaifman_tc", "bounded_degree",
      "distinguish"};
  return names;
}

Class ClassOf(int kind) {
  if (kind <= kPebble3) return kGame;
  if (kind <= kBoundedDegree) return kLocality;
  return kDistinguishClass;
}

struct Op {
  int kind = 0;
  std::size_t m = 0;
  std::size_t n = 0;
  std::size_t k = 0;  // rounds, pebbles or rank
  std::size_t r = 0;  // radius or sentence index
  bool orders = false;  // distinguish: linear orders instead of cycles
};

// One deck pass: every parameter point of every tool once. The seed
// shuffles each pass, so a run's operation mix (and with it each class's
// percentiles) is the same under every seed; only the order moves.
std::vector<Op> Deck() {
  std::vector<Op> deck;
  const auto add = [&](int kind, std::size_t m, std::size_t n, std::size_t k,
                       std::size_t r, bool orders = false) {
    deck.push_back({kind, m, n, k, r, orders});
  };
  for (std::size_t m = 4; m <= 10; ++m) {
    for (std::size_t n = m; n <= 10; ++n) add(kEfLinear3, m, n, 3, 0);
  }
  for (std::size_t m = 6; m <= 9; ++m) {
    for (std::size_t n = m; n <= 9; ++n) add(kEfLinear4, m, n, 4, 0);
  }
  for (std::size_t m = 3; m <= 8; ++m) {
    for (std::size_t k = 2; k <= 3; ++k) add(kEfCycles, m, m + 1, k, 0);
  }
  for (std::size_t m = 2; m <= 10; ++m) {
    for (std::size_t n = m; n <= 10; ++n) add(kPebble2, m, n, 3, 0);
  }
  for (std::size_t m = 3; m <= 8; ++m) {
    for (std::size_t n = m; n <= 8; ++n) add(kPebble3, m, n, 3, 0);
  }
  for (int kind : {kHanfCycles, kHanfLollipop}) {
    for (std::size_t r = 1; r <= 4; ++r) {
      for (std::size_t m : {2 * r + 1, 2 * r + 2, std::size_t{64}, std::size_t{256},
                            std::size_t{512}}) {
        add(kind, m, 0, 0, r);
      }
    }
  }
  for (std::size_t m = 6; m <= 24; ++m) add(kHanfRadius, m, 0, 0, 0);
  for (std::size_t n : {12, 16, 20, 24}) {
    for (std::size_t r = 1; r <= 2; ++r) add(kGaifmanTc, 0, n, 0, r);
  }
  for (std::size_t family = 0; family < 2; ++family) {  // cycles, grids
    for (std::size_t n = 512; n <= 4096; n += 512) {
      for (std::size_t sentence = 0; sentence < 3; ++sentence) {
        add(kBoundedDegree, family, n, 0, sentence);
      }
    }
  }
  for (std::size_t m = 3; m <= 6; ++m) {
    for (std::size_t n = m + 1; n <= 6; ++n) {
      for (std::size_t k = 2; k <= 3; ++k) add(kDistinguish, m, n, k, 0);
    }
  }
  for (std::size_t m = 2; m <= 5; ++m) {
    for (std::size_t n = m + 1; n <= 5; ++n) add(kDistinguish, m, n, 2, 0, true);
  }
  return deck;
}

class OpStream {
 public:
  explicit OpStream(std::uint64_t seed) : rng_(StreamSeed(seed, 21)), base_(Deck()) {}
  Op Next() {
    if (pos_ == deck_.size()) {
      deck_ = base_;
      for (std::size_t i = deck_.size(); i > 1; --i) {
        std::swap(deck_[i - 1], deck_[rng_.Below(i)]);
      }
      pos_ = 0;
    }
    return deck_[pos_++];
  }

 private:
  Rng rng_;
  std::vector<Op> base_;
  std::vector<Op> deck_;
  std::size_t pos_ = 0;
};

const char* const kSentences[] = {
    "forall x. exists y. E(x,y)",                 // true on cycles, false on grids
    "exists x. forall y. ~E(y,x)",                // false on cycles, true on grids
    "exists x. exists y. E(x,y) & E(y,x)",        // false on both (no 2-cycles)
};

// Structures are built once per run, outside the timed calls.
class Structures {
 public:
  const Structure& Get(const std::string& key, const std::function<Structure()>& make) {
    auto it = cache_.find(key);
    if (it == cache_.end()) it = cache_.emplace(key, make()).first;
    return it->second;
  }
  const fmtk::Relation& Tc(std::size_t n) {
    auto it = tc_.find(n);
    if (it == tc_.end()) {
      it = tc_.emplace(n, *fmtk::RelationQuery::TransitiveClosure().Evaluate(Chain(n)))
               .first;
    }
    return it->second;
  }
  const Structure& Order(std::size_t n) {
    return Get("L" + std::to_string(n), [n] { return fmtk::MakeLinearOrder(n); });
  }
  const Structure& Cycle(std::size_t n) {
    return Get("C" + std::to_string(n), [n] { return fmtk::MakeDirectedCycle(n); });
  }
  const Structure& TwoCycles(std::size_t m) {
    return Get("2C" + std::to_string(m), [m] { return fmtk::MakeDisjointCycles(2, m); });
  }
  const Structure& Chain(std::size_t n) {
    return Get("P" + std::to_string(n), [n] { return fmtk::MakeDirectedPath(n); });
  }
  const Structure& Lollipop(std::size_t m) {
    return Get("PC" + std::to_string(m), [m] { return fmtk::MakePathPlusCycle(m); });
  }
  const Structure& Grid(std::size_t n) {
    // w x h with w * h = n, w a power of two up to 64.
    return Get("G" + std::to_string(n), [n] {
      const std::size_t w = n >= 4096 ? 64 : (n >= 1024 ? 32 : 16);
      return fmtk::MakeGrid(w, n / w);
    });
  }
  /// Builds every structure `op` touches, so the timed call does not.
  void Prepare(const Op& op) {
    switch (op.kind) {
      case kEfLinear3:
      case kEfLinear4:
        Order(op.m), Order(op.n);
        break;
      case kEfCycles:
      case kPebble2:
      case kPebble3:
        Cycle(op.m), Cycle(op.n);
        break;
      case kHanfCycles:
      case kHanfRadius:
        TwoCycles(op.m), Cycle(2 * op.m);
        break;
      case kHanfLollipop:
        Chain(2 * op.m), Lollipop(op.m);
        break;
      case kGaifmanTc:
        Chain(op.n), Tc(op.n);
        break;
      case kBoundedDegree:
        (op.m == 0 ? Cycle(op.n) : Grid(op.n));
        break;
      case kDistinguish:
        if (op.orders) {
          Order(op.m), Order(op.n);
        } else {
          Cycle(op.m), Cycle(op.n);
        }
        break;
      default:
        break;
    }
  }

 private:
  std::map<std::string, Structure> cache_;
  std::map<std::size_t, fmtk::Relation> tc_;
};

struct Context {
  Structures structures;
  std::vector<std::unique_ptr<fmtk::BoundedDegreeEvaluator>> evaluators;
};

void AddGameStats(const fmtk::GameStats& s, Layers* layers) {
  if (layers == nullptr) return;
  layers->Count("games.nodes_explored", static_cast<double>(s.nodes_explored));
  layers->Count("games.table_hits", static_cast<double>(s.table_hits));
  layers->Count("games.moves_pruned", static_cast<double>(s.moves_pruned));
}

void AddIndexStats(const fmtk::NeighborhoodTypeIndex::Stats& s, Layers* layers) {
  if (layers == nullptr) return;
  layers->Count("locality.exact_hits", static_cast<double>(s.exact_hits));
  layers->Count("locality.canon_codes", static_cast<double>(s.canon_codes));
  layers->Count("locality.canon_hits", static_cast<double>(s.canon_hits));
  layers->Count("locality.iso_tests", static_cast<double>(s.iso_tests));
}

void AddLocalityStats(const fmtk::LocalityStats& s, Layers* layers) {
  if (layers == nullptr) return;
  layers->Count("locality.balls_extracted", static_cast<double>(s.balls_extracted));
  layers->Count("locality.bfs_node_visits", static_cast<double>(s.bfs_node_visits));
  layers->Count("locality.frontier_reuses", static_cast<double>(s.frontier_reuses));
}

// The answer of one tool call, rendered as text; the check compares it
// with the closed form or second route.
struct Outcome {
  std::string answer;
  std::optional<fmtk::Formula> sentence;  // distinguish only
  std::optional<fmtk::GaifmanViolation> violation;  // gaifman only
};

Outcome Call(const Op& op, Context& ctx, Layers* layers, std::uint64_t op_id) {
  Structures& st = ctx.structures;
  Tracer* t = layers != nullptr ? &layers->tracer : nullptr;
  Outcome out;
  const auto verdict = [](const fmtk::Result<bool>& r) {
    return r.ok() ? (*r ? "true" : "false") : "error: " + r.status().ToString();
  };
  switch (op.kind) {
    case kEfLinear3:
    case kEfLinear4:
    case kEfCycles: {
      const bool orders = op.kind != kEfCycles;
      const Structure& a = orders ? st.Order(op.m) : st.Cycle(op.m);
      const Structure& b = orders ? st.Order(op.n) : st.Cycle(op.n);
      ScopedSpan span(t, "games.solve", op_id);
      fmtk::EfGameSolver solver(a, b);
      out.answer = verdict(solver.DuplicatorWins(op.k));
      AddGameStats(solver.stats(), layers);
      break;
    }
    case kPebble2:
    case kPebble3: {
      ScopedSpan span(t, "games.solve", op_id);
      fmtk::PebbleGameSolver solver(st.Cycle(op.m), st.Cycle(op.n),
                                    op.kind == kPebble2 ? 2 : 3);
      out.answer = verdict(solver.DuplicatorWins(op.k));
      AddGameStats(solver.stats(), layers);
      break;
    }
    case kHanfCycles:
    case kHanfLollipop: {
      const bool cycles = op.kind == kHanfCycles;
      const Structure& a = cycles ? st.TwoCycles(op.m) : st.Chain(2 * op.m);
      const Structure& b = cycles ? st.Cycle(2 * op.m) : st.Lollipop(op.m);
      ScopedSpan span(t, "locality.call", op_id);
      fmtk::NeighborhoodTypeIndex index;
      out.answer = fmtk::HanfEquivalent(a, b, op.r, index) ? "true" : "false";
      AddIndexStats(index.stats(), layers);
      break;
    }
    case kHanfRadius: {
      ScopedSpan span(t, "locality.call", op_id);
      const auto r = fmtk::LargestHanfRadius(st.TwoCycles(op.m), st.Cycle(2 * op.m), op.m);
      out.answer = r.has_value() ? std::to_string(*r) : "none";
      break;
    }
    case kGaifmanTc: {
      ScopedSpan span(t, "locality.call", op_id);
      fmtk::LocalityEngine engine(st.Chain(op.n));
      auto v = fmtk::FindGaifmanViolation(engine, st.Tc(op.n), op.r);
      if (!v.ok()) {
        out.answer = "error: " + v.status().ToString();
      } else {
        out.answer = v->has_value() ? "violation" : "none";
        out.violation = *v;
      }
      AddLocalityStats(engine.stats(), layers);
      break;
    }
    case kBoundedDegree: {
      auto& evaluator = ctx.evaluators[op.r];
      const Structure& g = op.m == 0 ? st.Cycle(op.n) : st.Grid(op.n);
      const fmtk::LocalityStats before = evaluator->locality_stats();
      const double hits = static_cast<double>(evaluator->cache_hits());
      const double misses = static_cast<double>(evaluator->cache_misses());
      {
        ScopedSpan span(t, "bounded_degree.eval", op_id);
        out.answer = verdict(evaluator->Evaluate(g));
      }
      if (layers != nullptr) {
        const fmtk::LocalityStats& after = evaluator->locality_stats();
        fmtk::LocalityStats delta;
        delta.balls_extracted = after.balls_extracted - before.balls_extracted;
        delta.bfs_node_visits = after.bfs_node_visits - before.bfs_node_visits;
        delta.frontier_reuses = after.frontier_reuses - before.frontier_reuses;
        AddLocalityStats(delta, layers);
        layers->Count("bounded_degree.hits",
                      static_cast<double>(evaluator->cache_hits()) - hits);
        layers->Count("bounded_degree.misses",
                      static_cast<double>(evaluator->cache_misses()) - misses);
      }
      break;
    }
    case kDistinguish: {
      const Structure& a = op.orders ? st.Order(op.m) : st.Cycle(op.m);
      const Structure& b = op.orders ? st.Order(op.n) : st.Cycle(op.n);
      ScopedSpan span(t, "games.solve", op_id);
      fmtk::RankTypeIndex index;
      auto sentence = fmtk::DistinguishingSentence(a, b, op.k, index);
      if (!sentence.ok()) {
        out.answer = "error: " + sentence.status().ToString();
      } else {
        out.answer = sentence->has_value() ? "distinguished" : "equivalent";
        out.sentence = *sentence;
      }
      break;
    }
    default:
      break;
  }
  return out;
}

// Closed forms: Thm 3.1 for linear orders; two m-cycles and one 2m-cycle
// (and the chain / lollipop pair) agree on radius-r neighborhoods iff
// m >= 2r + 2; TC on a chain is not Gaifman-local, and a reported witness
// pair must straddle the output; the three bounded-degree sentences have
// known values on cycles and grids. Cycles with at most 2 pebbles are told
// apart only through their length class (1, 2, 3 or >= 4). Second routes:
// EF cycle games against the pebble game with as many pebbles as rounds,
// and distinguishing sentences against EF plus evaluating the sentence.
std::string Expected(const Op& op, Context& ctx) {
  Structures& st = ctx.structures;
  switch (op.kind) {
    case kEfLinear3:
    case kEfLinear4:
      return fmtk::LinearOrdersEquivalent(op.m, op.n, op.k) ? "true" : "false";
    case kEfCycles: {
      fmtk::PebbleGameSolver solver(st.Cycle(op.m), st.Cycle(op.n), op.k);
      auto r = solver.DuplicatorWins(op.k);
      return r.ok() ? (*r ? "true" : "false") : "error";
    }
    case kPebble2: {
      const auto cls = [](std::size_t m) { return std::min<std::size_t>(m, 4); };
      return cls(op.m) == cls(op.n) ? "true" : "false";
    }
    case kPebble3: {
      fmtk::EfGameSolver solver(st.Cycle(op.m), st.Cycle(op.n));
      auto r = solver.DuplicatorWins(op.k);
      return r.ok() ? (*r ? "true" : "false") : "error";
    }
    case kHanfCycles:
    case kHanfLollipop:
      return op.m >= 2 * op.r + 2 ? "true" : "false";
    case kHanfRadius:
      return std::to_string((op.m - 2) / 2);
    case kGaifmanTc:
      return "violation";
    case kBoundedDegree: {
      const bool grid = op.m == 1;
      if (op.r == 0) return grid ? "false" : "true";
      if (op.r == 1) return grid ? "true" : "false";
      return "false";
    }
    case kDistinguish: {
      const Structure& a = op.orders ? st.Order(op.m) : st.Cycle(op.m);
      const Structure& b = op.orders ? st.Order(op.n) : st.Cycle(op.n);
      fmtk::EfGameSolver solver(a, b);
      auto r = solver.DuplicatorWins(op.k);
      if (!r.ok()) return "error";
      return *r ? "equivalent" : "distinguished";
    }
    default:
      return "";
  }
}

std::string OpKey(const Op& op) {
  return std::to_string(op.kind) + ":" + std::to_string(op.m) + ":" +
         std::to_string(op.n) + ":" + std::to_string(op.k) + ":" +
         std::to_string(op.r) + ":" + (op.orders ? "o" : "c");
}

// The sentence and witness of an outcome are kept for the first record of
// each distinct operation only (the check verifies them once), so the
// record store does not grow with the rate.
struct Record {
  Op op;
  double ms;
  Outcome outcome;
};

void Keep(std::vector<Record>& records, std::map<std::string, bool>& seen, Op op,
          double ms, Outcome outcome) {
  if (!seen.emplace(OpKey(op), true).second) {
    outcome.sentence.reset();
    outcome.violation.reset();
  }
  records.push_back({op, ms, std::move(outcome)});
}

void Check(Context& ctx, const std::vector<Record>& records, Report& report) {
  std::map<std::string, std::string> expected;
  std::map<std::string, bool> verified;
  for (const Record& rec : records) {
    ++report.attempted;
    const std::string key = OpKey(rec.op);
    auto it = expected.find(key);
    if (it == expected.end()) it = expected.emplace(key, Expected(rec.op, ctx)).first;
    if (rec.outcome.answer != it->second) {
      report.Mismatch(KindNames()[rec.op.kind] + " " + key + ": got '" +
                      rec.outcome.answer + "' want '" + it->second + "'");
      continue;
    }
    if (verified.count(key)) continue;
    verified[key] = true;
    if (rec.outcome.sentence.has_value()) {
      const Structure& a = rec.op.orders ? ctx.structures.Order(rec.op.m)
                                         : ctx.structures.Cycle(rec.op.m);
      const Structure& b = rec.op.orders ? ctx.structures.Order(rec.op.n)
                                         : ctx.structures.Cycle(rec.op.n);
      auto in_a = fmtk::Satisfies(a, *rec.outcome.sentence);
      auto in_b = fmtk::Satisfies(b, *rec.outcome.sentence);
      if (!in_a.ok() || !in_b.ok() || !*in_a || *in_b) {
        report.Mismatch("distinguishing sentence does not separate " + key);
      }
    }
    if (rec.outcome.violation.has_value()) {
      const fmtk::Relation& tc = ctx.structures.Tc(rec.op.n);
      if (!tc.Contains(rec.outcome.violation->in_output) ||
          tc.Contains(rec.outcome.violation->not_in_output)) {
        report.Mismatch("Gaifman witness does not straddle TC for " + key);
      }
    }
  }
}

std::unique_ptr<Context> Setup(Layers* layers) {
  auto ctx = std::make_unique<Context>();
  for (const char* text : kSentences) {
    auto evaluator =
        fmtk::BoundedDegreeEvaluator::Create(*fmtk::ParseFormula(text));
    ctx->evaluators.push_back(
        std::make_unique<fmtk::BoundedDegreeEvaluator>(std::move(*evaluator)));
  }
  // The bounded-degree inputs are the largest; they arrive as FMTKBIN1.
  for (std::size_t n = 512; n <= 4096; n += 512) {
    ctx->structures.Get("C" + std::to_string(n), [&] {
      return LoadThroughBinary(fmtk::MakeDirectedCycle(n), layers);
    });
    ctx->structures.Get("G" + std::to_string(n), [&] {
      const std::size_t w = n >= 4096 ? 64 : (n >= 1024 ? 32 : 16);
      return LoadThroughBinary(fmtk::MakeGrid(w, n / w), layers);
    });
  }
  // Each evaluator decides its sentence once per clipped type histogram
  // (the fallback model check); cycles and grids of every size share one
  // histogram each, so deciding them on the smallest warms the cache.
  for (auto& evaluator : ctx->evaluators) {
    (void)evaluator->Evaluate(ctx->structures.Cycle(512));
    (void)evaluator->Evaluate(ctx->structures.Grid(512));
  }
  // Every other structure a deck can draw, built now so set-up pays it.
  for (const Op& op : Deck()) ctx->structures.Prepare(op);
  return ctx;
}

}  // namespace

std::uint64_t ToolboxSequenceHash(std::uint64_t seed, std::size_t count) {
  OpStream stream(seed);
  std::uint64_t h = Fnv1a("toolbox");
  for (std::size_t i = 0; i < count; ++i) h = Fnv1a(OpKey(stream.Next()), h);
  return h;
}

void RunToolbox(const RunConfig& config, Report& report) {
  if (!config.trace) {
    // Set-up is timed kSetupRepeats times: once before the measured phase
    // and the rest spread over it, between deck passes, so that the median
    // does not hang on the outside load of one moment.
    std::vector<double> setups;
    const auto timed_setup = [&setups] {
      const auto start = Clock::now();
      auto fresh = Setup(nullptr);
      setups.push_back(MsSince(start) / 1000.0);
      return fresh;
    };
    const std::size_t repeats = kSetupRepeats;
    std::unique_ptr<Context> ctx = timed_setup();
    OpStream stream(config.seed);
    std::vector<Record> records;
    // Room for every record up front, so vector growth does not put a
    // rate-dependent spike into peak_rss_mb.
    records.reserve(static_cast<std::size_t>(config.seconds * 4000) + 1024);
    std::map<std::string, bool> seen;
    // Whole deck passes, each timed; every pass is the same multiset of
    // operations, so pass times compare the machine's speed, not the mix.
    const std::size_t deck_size = Deck().size();
    std::vector<double> pass_ms;
    const auto start = Clock::now();
    const auto deadline =
        start + std::chrono::microseconds(static_cast<long long>(config.seconds * 1e6));
    do {
      const auto pass_start = Clock::now();
      for (std::size_t i = 0; i < deck_size; ++i) {
        const Op op = stream.Next();
        ctx->structures.Prepare(op);
        const auto t0 = Clock::now();
        Outcome outcome = Call(op, *ctx, nullptr, 0);
        Keep(records, seen, op, MsSince(t0), std::move(outcome));
      }
      pass_ms.push_back(MsSince(pass_start));
      if (setups.size() < repeats &&
          MsSince(start) >= 1000.0 * config.seconds * static_cast<double>(setups.size()) /
                                static_cast<double>(repeats)) {
        timed_setup();
      }
    } while (Clock::now() < deadline);
    while (setups.size() < repeats) timed_setup();
    const std::vector<std::size_t> kept = FastestPasses(pass_ms, kMinKeptPasses);
    ClassSamples classes[kClassCount];
    double kept_ms = 0.0;
    for (const std::size_t pass : kept) {
      kept_ms += pass_ms[pass];
      for (std::size_t i = pass * deck_size; i < (pass + 1) * deck_size; ++i) {
        classes[ClassOf(records[i].op.kind)].Add(records[i].ms, records[i].op.kind);
      }
    }
    ReportClass(report, "game", "class1", classes[kGame], 0.99, KindNames());
    ReportClass(report, "locality", "class2", classes[kLocality], 0.99, KindNames());
    ReportClass(report, "distinguish", "class3", classes[kDistinguishClass], 0.90,
                KindNames());
    const std::size_t kept_ops = kept.size() * deck_size;
    report.Set("ops_per_s", static_cast<double>(kept_ops) / (kept_ms / 1000.0), "1/s",
               kept_ops);
    report.Note("kept the fastest " + std::to_string(kept.size()) + " of " +
                std::to_string(pass_ms.size()) + " deck passes (" +
                std::to_string(deck_size) + " operations each)");
    report.Set("setup_s", Median(setups), "s", kSetupRepeats);
    report.Set("peak_rss_mb", PeakRssMb(), "MB");
    Check(*ctx, records, report);
    return;
  }

  // Traced run: the same operation prefix three times, each from a fresh
  // set-up: untraced for the baseline rate, then traced twice, so that any
  // drift in the exact counters between the two traced passes shows.
  double rates[2] = {0.0, 0.0};
  Layers passes[2];
  for (int pass = 0; pass < 3; ++pass) {
    Layers* layers = pass == 0 ? nullptr : &passes[pass - 1];
    auto ctx = Setup(layers);
    OpStream stream(config.seed);
    std::vector<Record> records;
    std::map<std::string, bool> seen;
    double op_ms = 0.0;
    for (std::size_t i = 0; i < kTracedOps; ++i) {
      const Op op = stream.Next();
      ctx->structures.Prepare(op);
      const auto t0 = Clock::now();
      Outcome outcome = Call(op, *ctx, layers, i + 1);
      const double ms = MsSince(t0);
      op_ms += ms;
      Keep(records, seen, op, ms, std::move(outcome));
    }
    if (pass < 2) rates[pass] = static_cast<double>(records.size()) / (op_ms / 1000.0);
    Check(*ctx, records, report);
  }
  CheckDrift(passes[0], passes[1], report);
  const Layers& layers = passes[0];
  ReportLayers(layers, report);
  report.Set("trace.ops_per_s_untraced", rates[0], "1/s");
  report.Set("trace.ops_per_s_traced", rates[1], "1/s");
  report.Set("trace.overhead_ops_per_s", rates[1] - rates[0], "1/s");
  report.spans = layers.tracer.spans();
}

}  // namespace perfbench
