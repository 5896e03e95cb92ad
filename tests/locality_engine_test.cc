#include <algorithm>
#include <cstddef>
#include <map>
#include <numeric>
#include <optional>
#include <random>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/locality/locality_engine.h"
#include "core/locality/neighborhood.h"
#include "structures/generators.h"
#include "structures/graph.h"
#include "structures/isomorphism.h"
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

TEST(LocalityEngineTest, StatsCountBallsAndCanonWork) {
  Structure s = MakeDirectedCycle(10);
  LocalityEngine engine(s);
  NeighborhoodTypeIndex index;
  (void)engine.TypeHistogram(2, index);
  EXPECT_EQ(engine.stats().balls_extracted, 10u);
  EXPECT_GT(engine.stats().bfs_node_visits, 0u);
  // One isomorphism class, ten elements: one code interned, nine hits.
  EXPECT_EQ(engine.stats().canon_codes, 10u);
  EXPECT_EQ(engine.stats().canon_hits, 9u);
  EXPECT_EQ(engine.stats().iso_tests, 0u);
  EXPECT_EQ(index.size(), 1u);
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
