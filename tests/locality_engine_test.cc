#include <algorithm>
#include <cstddef>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/algorithmic/bounded_degree.h"
#include "core/locality/gaifman_local.h"
#include "core/locality/locality_engine.h"
#include "core/locality/neighborhood.h"
#include "eval/compiled_eval.h"
#include "logic/parser.h"
#include "queries/relation_query.h"
#include "structures/generators.h"
#include "structures/graph.h"
#include "structures/isomorphism.h"
#include "structures/signature.h"
#include "structures/structure.h"

namespace fmtk {
namespace {

// Fixed-seed pool spanning the shapes the locality layer meets in practice:
// paths, cycles, unions, trees, grids, cliques, and sparse random graphs.
std::vector<Structure> TestPool() {
  std::vector<Structure> pool;
  pool.push_back(MakeDirectedPath(9));
  pool.push_back(MakeDirectedCycle(8));
  pool.push_back(MakeDisjointCycles(2, 5));
  pool.push_back(MakePathPlusCycle(5));
  pool.push_back(MakeFullBinaryTree(3));
  pool.push_back(MakeGrid(4, 3));
  pool.push_back(MakeCompleteGraph(5));
  pool.push_back(MakeEmptyGraph(6));
  std::mt19937_64 rng(20260807);
  for (int i = 0; i < 4; ++i) {
    pool.push_back(MakeRandomGraph(10, 0.25, rng));
  }
  return pool;
}

// Relabels `s` by a uniformly random permutation — an isomorphic copy whose
// literal content differs.
Structure Permuted(const Structure& s, std::mt19937_64& rng) {
  std::vector<Element> pi(s.domain_size());
  std::iota(pi.begin(), pi.end(), 0);
  std::shuffle(pi.begin(), pi.end(), rng);
  Structure out(s.signature_ptr(), s.domain_size());
  for (std::size_t r = 0; r < s.signature().relation_count(); ++r) {
    for (const auto t : s.relation(r).rows()) {
      Tuple mapped;
      mapped.reserve(t.size());
      for (Element e : t) {
        mapped.push_back(pi[e]);
      }
      out.AddTuple(r, mapped);
    }
  }
  for (std::size_t c = 0; c < s.signature().constant_count(); ++c) {
    if (std::optional<Element> v = s.constant(c)) {
      out.SetConstant(c, pi[*v]);
    }
  }
  return out;
}

TEST(LocalityEngineTest, BallsAndNeighborhoodsMatchFreeFunctions) {
  for (const Structure& s : TestPool()) {
    LocalityEngine engine(s);
    Adjacency gaifman = GaifmanAdjacency(s);
    for (std::size_t r = 0; r <= 3; ++r) {
      for (Element v = 0; v < s.domain_size(); ++v) {
        EXPECT_EQ(engine.Ball({v}, r), Ball(gaifman, {v}, r));
        Neighborhood ours = engine.NeighborhoodAt({v}, r);
        Neighborhood ref = NeighborhoodOf(s, gaifman, {v}, r);
        EXPECT_TRUE(ours.structure == ref.structure);
        EXPECT_EQ(ours.distinguished, ref.distinguished);
      }
      // Multi-element centers (the ā of N_r(ā)).
      if (s.domain_size() >= 2) {
        const Tuple pair = {0, static_cast<Element>(s.domain_size() - 1)};
        EXPECT_EQ(engine.Ball(pair, r), Ball(gaifman, pair, r));
        Neighborhood ours = engine.NeighborhoodAt(pair, r);
        Neighborhood ref = NeighborhoodOf(s, gaifman, pair, r);
        EXPECT_TRUE(ours.structure == ref.structure);
        EXPECT_EQ(ours.distinguished, ref.distinguished);
      }
    }
  }
}

// BallSizeHistogram is a cross-check of the vectorized popcount sweep: the
// size counted over the visited bitset must equal Ball().size() for every
// element at every radius, and each per-radius histogram is exactly the
// multiset of those sizes.
TEST(LocalityEngineTest, BallSizeHistogramMatchesBallSizes) {
  const std::size_t kRadius = 3;
  for (const Structure& s : TestPool()) {
    LocalityEngine engine(s);
    const std::vector<std::map<std::size_t, std::size_t>> hist =
        engine.BallSizeHistogram(kRadius);
    ASSERT_EQ(hist.size(), kRadius + 1);
    for (std::size_t r = 0; r <= kRadius; ++r) {
      std::map<std::size_t, std::size_t> ref;
      for (Element v = 0; v < s.domain_size(); ++v) {
        ++ref[engine.Ball({v}, r).size()];
      }
      EXPECT_EQ(hist[r], ref) << "radius " << r;
    }
  }
}

// The tentpole correctness claim: canonical-code equality coincides exactly
// with AreIsomorphic. >= 500 fixed-seed pairs across shapes and radii.
TEST(LocalityEngineTest, DifferentialSweepCodesMatchIsomorphism) {
  std::vector<Structure> pool = TestPool();
  std::mt19937_64 rng(7);
  const std::size_t base = pool.size();
  for (std::size_t i = 0; i < base; ++i) {
    pool.push_back(Permuted(pool[i], rng));
  }
  std::size_t pairs_checked = 0;
  for (std::size_t r = 0; r <= 3; ++r) {
    struct Entry {
      Neighborhood n;
      CanonicalCode code;
    };
    std::vector<Entry> entries;
    for (const Structure& s : pool) {
      LocalityEngine engine(s);
      // Sampling every third element keeps the quadratic pair loop fast
      // while still crossing structure boundaries.
      for (Element v = 0; v < s.domain_size(); v += 3) {
        Neighborhood n = engine.NeighborhoodAt({v}, r);
        std::optional<CanonicalCode> code = CanonicalNeighborhoodCode(n);
        ASSERT_TRUE(code.has_value());  // all pool balls are small
        entries.push_back(Entry{std::move(n), std::move(*code)});
      }
    }
    for (std::size_t i = 0; i < entries.size(); ++i) {
      for (std::size_t j = i + 1; j < entries.size(); ++j) {
        const bool codes_equal = entries[i].code == entries[j].code;
        const bool iso = NeighborhoodsIsomorphic(entries[i].n, entries[j].n);
        ASSERT_EQ(codes_equal, iso)
            << "radius " << r << " pair (" << i << "," << j << ")";
        ++pairs_checked;
      }
    }
  }
  EXPECT_GE(pairs_checked, 500u);
}

// A permuted copy realizes the same multiset of neighborhood types, so a
// shared index must produce identical histograms for both.
TEST(LocalityEngineTest, PermutedCopiesShareHistograms) {
  std::mt19937_64 rng(11);
  for (const Structure& s : TestPool()) {
    Structure p = Permuted(s, rng);
    LocalityEngine engine_s(s);
    LocalityEngine engine_p(p);
    NeighborhoodTypeIndex index;
    for (std::size_t r = 0; r <= 3; ++r) {
      EXPECT_EQ(engine_s.TypeHistogram(r, index),
                engine_p.TypeHistogram(r, index));
    }
  }
}

// Both paths assign TypeIds in first-occurrence element order, so the maps
// agree key for key even across separate indexes.
TEST(LocalityEngineTest, EngineHistogramMatchesFreeFunction) {
  for (const Structure& s : TestPool()) {
    for (std::size_t r = 0; r <= 3; ++r) {
      NeighborhoodTypeIndex free_index;
      NeighborhoodTypeIndex engine_index;
      auto via_free = NeighborhoodTypeHistogram(s, r, free_index);
      LocalityEngine engine(s);
      auto via_engine = engine.TypeHistogram(r, engine_index);
      EXPECT_EQ(via_free, via_engine);
    }
  }
}

// The canonical-code regime and the seed's invariant-bucket regime induce
// the same partition into types.
TEST(LocalityEngineTest, CanonicalAndFallbackRegimesAgree) {
  NeighborhoodTypeIndex::Options no_canon;
  no_canon.use_canonical_codes = false;
  for (const Structure& s : TestPool()) {
    LocalityEngine engine(s);
    for (std::size_t r = 0; r <= 3; ++r) {
      NeighborhoodTypeIndex canon_index;
      NeighborhoodTypeIndex oracle_index(no_canon);
      auto with_codes = engine.TypeHistogram(r, canon_index);
      std::map<NeighborhoodTypeIndex::TypeId, std::size_t> with_oracle;
      for (Element v = 0; v < s.domain_size(); ++v) {
        ++with_oracle[oracle_index.TypeOf(engine.NeighborhoodAt({v}, r))];
      }
      EXPECT_EQ(with_codes, with_oracle);
      EXPECT_EQ(canon_index.size(), oracle_index.size());
    }
  }
}

TEST(LocalityEngineTest, SweepMatchesFreshHistogramsAndReusesFrontiers) {
  for (const Structure& s : TestPool()) {
    LocalityEngine sweep_engine(s);
    NeighborhoodSweep sweep = sweep_engine.NewSweep();
    for (std::size_t r = 0; r <= 3; ++r) {
      LocalityEngine fresh_engine(s);
      NeighborhoodTypeIndex sweep_index;
      NeighborhoodTypeIndex fresh_index;
      EXPECT_EQ(sweep.HistogramAt(r, sweep_index),
                fresh_engine.TypeHistogram(r, fresh_index));
    }
    // Radii past 0 grow from saved frontiers rather than fresh BFS runs.
    EXPECT_GT(sweep_engine.stats().frontier_reuses, 0u);
  }
}

TEST(LocalityEngineTest, SweepVisitsEachNodeOncePerElement) {
  Structure s = MakeGrid(5, 4);
  LocalityEngine sweep_engine(s);
  NeighborhoodSweep sweep = sweep_engine.NewSweep();
  NeighborhoodTypeIndex index;
  for (std::size_t r = 0; r <= 3; ++r) {
    (void)sweep.HistogramAt(r, index);
  }
  LocalityEngine oneshot(s);
  NeighborhoodTypeIndex index2;
  (void)oneshot.TypeHistogram(3, index2);
  EXPECT_EQ(sweep_engine.stats().bfs_node_visits,
            oneshot.stats().bfs_node_visits);
}

// Shapes where consecutive elements have shifted neighborhoods (grids,
// cycles, chains, a ternary chain, a periodically colored cycle), shapes
// where they do not (random graphs and random signatures of arity 0..3),
// and the cases the shift must not see through: interpreted constants,
// rows inserted in reverse order, and a cycle with one edge reversed,
// whose ends have as many rows as their successors but not shifted ones.
std::vector<Structure> ShiftCorpus() {
  std::vector<Structure> corpus;
  for (std::size_t w : {5, 9, 16, 64}) {
    corpus.push_back(MakeGrid(w, w));
  }
  corpus.push_back(MakeDirectedCycle(10));
  corpus.push_back(MakeDirectedCycle(41));
  corpus.push_back(MakeDirectedPath(12));
  corpus.push_back(MakeDirectedPath(40));
  corpus.push_back(MakeDisjointCycles(2, 9));
  corpus.push_back(MakePathPlusCycle(8));
  Structure reversed(Signature::Graph(), 20);
  for (Element i = 19; i-- > 0;) {
    reversed.AddTuple(0, {i, i + 1});
  }
  corpus.push_back(std::move(reversed));
  Structure one_reversed(Signature::Graph(), 12);
  for (Element i = 0; i < 12; ++i) {
    const Element next = (i + 1) % 12;
    one_reversed.AddTuple(0, i == 5 ? Tuple{next, i} : Tuple{i, next});
  }
  corpus.push_back(std::move(one_reversed));
  auto colored_sig = std::make_shared<Signature>();
  colored_sig->AddRelation("E", 2).AddRelation("Red", 1);
  Structure colored(colored_sig, 30);
  for (Element i = 0; i < 30; ++i) {
    colored.AddTuple(0, {i, (i + 1) % 30});
    if (i % 7 == 0) {
      colored.AddTuple(1, {i});
    }
  }
  corpus.push_back(std::move(colored));
  // The chain of consecutive triples, with a true nullary flag and a
  // constant, left uninterpreted and then interpreted.
  auto ternary_sig = std::make_shared<Signature>();
  ternary_sig->AddRelation("R", 3).AddRelation("P", 0).AddConstant("c");
  Structure ternary(ternary_sig, 25);
  for (Element i = 0; i + 2 < 25; ++i) {
    ternary.AddTuple(0, {i, i + 1, i + 2});
  }
  ternary.AddTuple(1, {});
  corpus.push_back(ternary);
  ternary.SetConstant(0, 12);
  corpus.push_back(std::move(ternary));
  std::mt19937_64 rng(20261021);
  for (int i = 0; i < 4; ++i) {
    corpus.push_back(MakeRandomGraph(16, 0.15, rng));
  }
  for (int i = 0; i < 6; ++i) {
    const std::size_t n = 12;
    auto sig = std::make_shared<Signature>();
    const std::size_t relations = 1 + rng() % 3;
    for (std::size_t r = 0; r < relations; ++r) {
      sig->AddRelation("R" + std::to_string(r), rng() % 4);
    }
    sig->AddConstant("c").AddConstant("d");
    Structure s(sig, n);
    for (std::size_t r = 0; r < relations; ++r) {
      const std::size_t arity = sig->relation(r).arity;
      const std::size_t rows = arity == 0 ? rng() % 2 : n;
      for (std::size_t k = 0; k < rows; ++k) {
        Tuple t;
        for (std::size_t j = 0; j < arity; ++j) {
          t.push_back(static_cast<Element>(rng() % n));
        }
        s.AddTuple(r, t);
      }
    }
    if (i % 2 == 1) {
      s.SetConstant(0, static_cast<Element>(rng() % n));  // d stays unset
    }
    corpus.push_back(std::move(s));
  }
  return corpus;
}

// The histogram pass (with its shift step) against the independent
// NeighborhoodAt + TypeOf path, fresh and through a sweep's stored balls,
// each with a fresh index: equal histograms, TypeIds in first-element
// order, and every element's ball either extracted or shifted once.
TEST(LocalityEngineTest, ShiftedHistogramsMatchIndependentPath) {
  std::uint64_t shifted = 0;
  for (const Structure& s : ShiftCorpus()) {
    LocalityEngine engine(s);
    NeighborhoodSweep sweep = engine.NewSweep();
    for (std::size_t r = 0; r <= 4; ++r) {
      const std::string label = "n " + std::to_string(s.domain_size()) +
                                " radius " + std::to_string(r);
      NeighborhoodTypeIndex ref_index;
      const auto ref = NeighborhoodTypeHistogram(s, r, ref_index);
      const LocalityStats before = engine.stats();
      NeighborhoodTypeIndex fresh_index;
      EXPECT_EQ(engine.TypeHistogram(r, fresh_index), ref) << label;
      const LocalityStats& after = engine.stats();
      EXPECT_EQ(after.balls_extracted - before.balls_extracted +
                    after.balls_shifted - before.balls_shifted,
                s.domain_size())
          << label;
      shifted += after.balls_shifted - before.balls_shifted;
      NeighborhoodTypeIndex sweep_index;
      EXPECT_EQ(sweep.HistogramAt(r, sweep_index), ref) << label;
    }
  }
  EXPECT_GT(shifted, 0u);
}

// The three sentences of the toolbox workload: one evaluator each, shared
// across the graphs of the shift corpus so clipped histograms are reused,
// against the compiled evaluator on every graph.
TEST(LocalityEngineTest, BoundedDegreeVerdictsMatchCompiledEvaluator) {
  for (const char* text :
       {"forall x. exists y. E(x,y)", "exists x. forall y. ~E(y,x)",
        "exists x. exists y. E(x,y) & E(y,x)"}) {
    const Formula sentence = *ParseFormula(text);
    Result<BoundedDegreeEvaluator> evaluator =
        BoundedDegreeEvaluator::Create(sentence);
    ASSERT_TRUE(evaluator.ok());
    for (const Structure& s : ShiftCorpus()) {
      if (!(s.signature() == *Signature::Graph())) {
        continue;
      }
      Result<CompiledEvaluator> compiled =
          CompiledEvaluator::Compile(s, sentence);
      ASSERT_TRUE(compiled.ok());
      const Result<bool> expected = compiled->Evaluate();
      const Result<bool> got = evaluator->Evaluate(s);
      ASSERT_TRUE(expected.ok() && got.ok());
      EXPECT_EQ(*got, *expected)
          << text << " on n " << s.domain_size();
    }
    EXPECT_GT(evaluator->cache_hits(), 0u) << text;
  }
}

// The engine's streaming content hash is the one TypeOf computes on the
// materialized neighborhood: a histogram pass over contents the index has
// already resolved answers every element by content, with no
// canonicalization.
TEST(LocalityEngineTest, EngineProbesFindContentsTypeOfResolved) {
  for (const Structure& s : ShiftCorpus()) {
    if (s.domain_size() > 100) {
      continue;  // stays under the exact-content cache's cap
    }
    LocalityEngine engine(s);
    for (std::size_t r = 0; r <= 2; ++r) {
      NeighborhoodTypeIndex index;
      const auto ref = NeighborhoodTypeHistogram(s, r, index);
      const NeighborhoodTypeIndex::Stats before = index.stats();
      EXPECT_EQ(engine.TypeHistogram(r, index), ref);
      EXPECT_EQ(index.stats().canon_codes, before.canon_codes)
          << "n " << s.domain_size() << " radius " << r;
      EXPECT_EQ(index.stats().exact_hits - before.exact_hits,
                s.domain_size());
    }
  }
}

// Regression guard for the seed bug: once the exemplar cap is reached,
// probing novel contents must not grow empty exact-cache rows.
TEST(LocalityEngineTest, ExactCacheRespectsExemplarCap) {
  NeighborhoodTypeIndex::Options options;
  options.max_exemplars = 4;
  options.use_canonical_codes = false;
  NeighborhoodTypeIndex index(options);
  std::vector<Structure> paths;
  paths.reserve(20);
  for (std::size_t n = 2; n < 22; ++n) {
    paths.push_back(MakeDirectedPath(n));
  }
  for (const Structure& p : paths) {
    LocalityEngine engine(p);
    (void)index.TypeOf(engine.NeighborhoodAt({0}, p.domain_size()));
  }
  EXPECT_EQ(index.size(), 20u);  // all distinct types
  EXPECT_LE(index.exact_cache_rows(), options.max_exemplars);
  const std::size_t rows = index.exact_cache_rows();
  // Re-probing novel contents past the cap: still no new rows.
  for (const Structure& p : paths) {
    LocalityEngine engine(p);
    (void)index.TypeOf(engine.NeighborhoodAt({0}, p.domain_size()));
  }
  EXPECT_EQ(index.exact_cache_rows(), rows);
  EXPECT_EQ(index.size(), 20u);
}

// BFS work is counted by the engine, type-resolution work by the index,
// once per element: in the canonical regime each element is answered by
// literal content or canonicalized, and only codes new to the index add
// types.
TEST(LocalityEngineTest, StatsCountBallsAndCanonWork) {
  Structure s = MakeDirectedCycle(10);
  LocalityEngine engine(s);
  NeighborhoodTypeIndex index;
  (void)engine.TypeHistogram(2, index);
  // Elements 1..7 are shift-equal: the edges at each, moved by one, are
  // the edges at its successor. The edges 9->0 at 0 and 8->9 at 8 have no
  // shifted copy, and 9 has no successor. So the balls of 4, 5 and 6,
  // whose predecessors' balls lie in 1..7, are shifted, not searched.
  EXPECT_EQ(engine.stats().balls_extracted, 7u);
  EXPECT_EQ(engine.stats().balls_shifted, 3u);
  EXPECT_GT(engine.stats().bfs_node_visits, 0u);
  // One isomorphism class in five literal contents: the balls of 3..7 are
  // shifted copies of the ball of 2, and the balls of 0, 1, 8 and 9 wrap
  // around 0, so each is numbered differently. Five codes, the first
  // interned and four hits; five elements answered by content, three of
  // them by the shift.
  EXPECT_EQ(index.stats().canon_codes, 5u);
  EXPECT_EQ(index.stats().canon_hits, 4u);
  EXPECT_EQ(index.stats().exact_hits, 5u);
  EXPECT_EQ(index.stats().iso_tests, 0u);
  EXPECT_EQ(index.size(), 1u);
  for (const Structure& p : TestPool()) {
    LocalityEngine pool_engine(p);
    NeighborhoodSweep sweep = pool_engine.NewSweep();
    NeighborhoodTypeIndex pool_index;
    for (std::size_t r = 0; r <= 3; ++r) {
      // A fresh pass, then the sweep's pass over the same contents.
      for (int pass = 0; pass < 2; ++pass) {
        const NeighborhoodTypeIndex::Stats before = pool_index.stats();
        const std::size_t types_before = pool_index.size();
        if (pass == 0) {
          (void)pool_engine.TypeHistogram(r, pool_index);
        } else {
          (void)sweep.HistogramAt(r, pool_index);
        }
        const NeighborhoodTypeIndex::Stats& after = pool_index.stats();
        const std::uint64_t codes = after.canon_codes - before.canon_codes;
        EXPECT_EQ(after.exact_hits - before.exact_hits + codes,
                  p.domain_size())
            << "radius " << r << " pass " << pass;
        EXPECT_EQ(pool_index.size() - types_before,
                  codes - (after.canon_hits - before.canon_hits))
            << "radius " << r << " pass " << pass;
      }
    }
  }
}

// All tuples of {0..n-1}^m in lexicographic order.
std::vector<Tuple> AllTuplesOf(std::size_t n, std::size_t m) {
  std::vector<Tuple> out(1, Tuple());
  for (std::size_t i = 0; i < m; ++i) {
    std::vector<Tuple> next;
    for (const Tuple& t : out) {
      for (Element e = 0; e < n; ++e) {
        next.push_back(t);
        next.back().push_back(e);
      }
    }
    out = std::move(next);
  }
  return out;
}

// Every m-tuple's r-neighborhood, with an isomorphism invariant that lets
// the brute-force scan skip pairs it proves non-isomorphic.
struct TupleHoods {
  std::vector<Tuple> tuples;
  std::vector<Neighborhood> hoods;
  std::vector<std::size_t> invariants;
};

TupleHoods HoodsOf(const Structure& s, std::size_t m, std::size_t radius) {
  LocalityEngine engine(s);
  TupleHoods out;
  out.tuples = AllTuplesOf(s.domain_size(), m);
  for (const Tuple& t : out.tuples) {
    out.hoods.push_back(engine.NeighborhoodAt(t, radius));
    out.invariants.push_back(IsomorphismInvariant(
        out.hoods.back().structure, out.hoods.back().distinguished));
  }
  return out;
}

// The witness by brute force: in AllTuplesOf order, the first tuple with an
// earlier tuple on the other side of `output` whose neighborhood is
// isomorphic to its own, paired with the first such earlier tuple.
std::optional<GaifmanViolation> BruteForceViolation(const TupleHoods& h,
                                                    const Relation& output) {
  for (std::size_t j = 0; j < h.tuples.size(); ++j) {
    const bool in_j = output.Contains(h.tuples[j]);
    for (std::size_t i = 0; i < j; ++i) {
      if (output.Contains(h.tuples[i]) != in_j &&
          h.invariants[i] == h.invariants[j] &&
          NeighborhoodsIsomorphic(h.hoods[i], h.hoods[j])) {
        return in_j ? GaifmanViolation{h.tuples[j], h.tuples[i]}
                    : GaifmanViolation{h.tuples[i], h.tuples[j]};
      }
    }
  }
  return std::nullopt;
}

// Expects FindGaifmanViolation to report the brute-force witness; returns
// whether there is one.
bool ExpectSameWitness(const Structure& s, const TupleHoods& hoods,
                       const Relation& output, std::size_t radius,
                       const std::string& label) {
  Result<std::optional<GaifmanViolation>> found =
      FindGaifmanViolation(s, output, radius);
  EXPECT_TRUE(found.ok()) << label;
  const std::optional<GaifmanViolation> expected =
      BruteForceViolation(hoods, output);
  if (!found.ok() || found->has_value() != expected.has_value()) {
    ADD_FAILURE() << label << ": search and brute force disagree";
  } else if (expected.has_value()) {
    EXPECT_EQ((*found)->in_output, expected->in_output) << label;
    EXPECT_EQ((*found)->not_in_output, expected->not_in_output) << label;
  }
  return expected.has_value();
}

// FindGaifmanViolation reports exactly the pair the pairwise scan finds,
// for the edge relation, its transitive closure and a random binary
// output, on every pool structure.
TEST(LocalityEngineTest, GaifmanWitnessMatchesBruteForce) {
  const RelationQuery tc = RelationQuery::TransitiveClosure();
  std::mt19937_64 rng(20261019);
  std::bernoulli_distribution coin(0.3);
  std::size_t violations = 0;
  for (const Structure& s : TestPool()) {
    Relation random(2);
    for (const Tuple& t : AllTuplesOf(s.domain_size(), 2)) {
      if (coin(rng)) {
        random.Add(t);
      }
    }
    const std::vector<std::pair<std::string, Relation>> outputs = {
        {"E", s.relation(0)}, {"TC", *tc.Evaluate(s)}, {"random", random}};
    for (std::size_t r = 0; r <= 2; ++r) {
      const TupleHoods hoods = HoodsOf(s, 2, r);
      for (const auto& [name, output] : outputs) {
        violations += ExpectSameWitness(
            s, hoods, output, r,
            name + " radius " + std::to_string(r) + " n " +
                std::to_string(s.domain_size()));
      }
    }
  }
  EXPECT_GT(violations, 0u);
}

// The same agreement where the canonicalizer declines some balls: two
// disjoint stars with 129 leaves each. At radius 1 a center's ball is its
// whole star, above kCanonMaxDomain, so the centers' types come from the
// invariant-bucket path while the leaves' two-element balls get codes.
TEST(LocalityEngineTest, GaifmanWitnessMatchesBruteForceWithoutCodes) {
  const Element leaves = 129;
  const Element centers[2] = {0, leaves + 1};
  Structure stars(MakeDirectedPath(1).signature_ptr(), 2 * (leaves + 1));
  for (Element c : centers) {
    for (Element leaf = c + 1; leaf <= c + leaves; ++leaf) {
      stars.AddTuple(0, {c, leaf});
    }
  }
  LocalityEngine engine(stars);
  ASSERT_FALSE(CanonicalNeighborhoodCode(engine.NeighborhoodAt({centers[0]}, 1))
                   .has_value());
  ASSERT_TRUE(CanonicalNeighborhoodCode(engine.NeighborhoodAt({1}, 1))
                  .has_value());
  Relation one_center(1);
  one_center.Add({centers[0]});
  Relation both_centers = one_center;
  both_centers.Add({centers[1]});
  Relation some_leaves(1);
  some_leaves.Add({5});
  some_leaves.Add({9});
  const TupleHoods hoods = HoodsOf(stars, 1, 1);
  EXPECT_TRUE(ExpectSameWitness(stars, hoods, one_center, 1, "one center"));
  EXPECT_FALSE(
      ExpectSameWitness(stars, hoods, both_centers, 1, "both centers"));
  EXPECT_TRUE(ExpectSameWitness(stars, hoods, some_leaves, 1, "leaves"));
  const std::optional<GaifmanViolation> v =
      *FindGaifmanViolation(stars, one_center, 1);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->in_output, Tuple{centers[0]});
  EXPECT_EQ(v->not_in_output, Tuple{centers[1]});
}

TEST(LocalityEngineTest, CachedMaxDegreeMatchesGraphScan) {
  for (const Structure& s : TestPool()) {
    LocalityEngine engine(s);
    for (std::size_t r = 0; r < s.signature().relation_count(); ++r) {
      EXPECT_EQ(engine.CachedMaxDegree(r), MaxDegree(s, r));
      // Second call served from the cache — same answer.
      EXPECT_EQ(engine.CachedMaxDegree(r), MaxDegree(s, r));
    }
  }
}

}  // namespace
}  // namespace fmtk
