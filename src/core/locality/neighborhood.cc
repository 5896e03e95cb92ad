#include "core/locality/neighborhood.h"

#include <algorithm>
#include <utility>

#include "base/check.h"
#include "base/hash.h"
#include "core/locality/locality_engine.h"
#include "structures/isomorphism.h"

namespace fmtk {

namespace {

// Hash of the literal content of a neighborhood. Tuples are folded
// additively so the hash is insertion-order independent, matching
// Structure's set-semantics equality.
std::size_t ContentHash(const Neighborhood& n) {
  std::size_t h = n.structure.domain_size();
  VectorHash<Element> tuple_hash;
  for (std::size_t r = 0; r < n.structure.signature().relation_count(); ++r) {
    std::size_t folded = n.structure.relation(r).size();
    for (const auto t : n.structure.relation(r).rows()) {
      folded += tuple_hash.Hash(t);
    }
    HashCombine(h, folded);
  }
  for (std::size_t c = 0; c < n.structure.signature().constant_count(); ++c) {
    std::optional<Element> e = n.structure.constant(c);
    HashCombine(h, e.has_value() ? static_cast<std::size_t>(*e) + 1 : 0);
  }
  HashCombine(h, tuple_hash(n.distinguished));
  return h;
}

bool IdenticalContent(const Neighborhood& a, const Neighborhood& b) {
  return a.distinguished == b.distinguished && a.structure == b.structure;
}

// Cheap isomorphism-invariant signature: sizes, the atomic invariants of
// the distinguished elements in order, and the sorted multiset of all
// per-element atomic-invariant hashes. Much cheaper than the WL refinement
// inside IsomorphismInvariant and independent of it, so it catches
// different collisions.
std::vector<std::size_t> CheapSignature(const Neighborhood& n) {
  const Structure& s = n.structure;
  std::vector<std::size_t> sig;
  sig.push_back(s.domain_size());
  sig.push_back(n.distinguished.size());
  for (std::size_t r = 0; r < s.signature().relation_count(); ++r) {
    sig.push_back(s.relation(r).size());
  }
  std::vector<std::size_t> element_hashes(s.domain_size());
  for (Element e = 0; e < s.domain_size(); ++e) {
    std::size_t h = 0x9e3779b97f4a7c15ULL;
    for (std::size_t v : AtomicInvariantOf(s, e)) {
      HashCombine(h, v);
    }
    element_hashes[e] = h;
  }
  for (Element d : n.distinguished) {
    sig.push_back(d < s.domain_size() ? element_hashes[d] : 0);
  }
  std::sort(element_hashes.begin(), element_hashes.end());
  sig.insert(sig.end(), element_hashes.begin(), element_hashes.end());
  return sig;
}

// ---------------------------------------------------------------------------
// Canonical codes.
//
// Exact graph-canonicalization specialized to the small structures that
// arise as neighborhoods: iterative color refinement over the Gaifman graph
// assigns dense ranks; when the coloring is not discrete, the search
// individualizes every element of the first non-singleton cell in turn and
// takes the lexicographic minimum certificate over all branches. No
// best-so-far pruning: the total work (counted in refinement passes) is
// then a function of the isomorphism class alone, so the budget bail-out
// below is itself isomorphism-invariant.
// ---------------------------------------------------------------------------

// Neighborhoods above this domain size skip canonicalization (the fallback
// invariant-bucket path handles them); bounded-degree balls stay far below.
constexpr std::size_t kCanonMaxDomain = 128;
// Total refinement passes allowed across the whole individualization
// search. Exhaustion means the neighborhood is too symmetric (near-complete
// graphs: factorial branch counts) and falls back, deterministically for
// the entire isomorphism class.
constexpr std::size_t kCanonPassBudget = 4096;

// Reassigns `color` to dense ranks 0..k-1 of the lexicographic order of
// `keys` and returns k (the class count). Elements with equal keys get
// equal ranks.
template <typename Key>
std::size_t DenseRank(const std::vector<Key>& keys,
                      std::vector<std::uint32_t>& color) {
  const std::size_t b = keys.size();
  std::vector<std::uint32_t> order(b);
  for (std::uint32_t i = 0; i < b; ++i) {
    order[i] = i;
  }
  std::sort(order.begin(), order.end(), [&](std::uint32_t x, std::uint32_t y) {
    return keys[x] < keys[y];
  });
  std::size_t classes = 0;
  for (std::size_t i = 0; i < b; ++i) {
    if (i > 0 && keys[order[i]] != keys[order[i - 1]]) {
      ++classes;
    }
    color[order[i]] = static_cast<std::uint32_t>(classes);
  }
  return b == 0 ? 0 : classes + 1;
}

// Reused buffers for refinement passes: one flat arena of concatenated
// (color, sorted neighbor colors) keys instead of a vector-of-vectors per
// pass — the individualization search runs many passes over the same small
// adjacency and the allocations dominated the refinement cost.
struct RefineScratch {
  std::vector<std::uint32_t> flat;
  std::vector<std::uint32_t> start;  // b + 1 offsets into flat
  std::vector<std::uint32_t> order;
};

// One refinement pass: recolor by (color, sorted neighbor-color multiset).
// Dense ranks mean the new partition refines the old one, so the class
// count is nondecreasing and "count unchanged" is exact stability.
std::size_t CanonRefinePass(const Adjacency& adj,
                            std::vector<std::uint32_t>& color,
                            RefineScratch& scr) {
  const std::size_t b = adj.size();
  scr.flat.clear();
  scr.start.resize(b + 1);
  for (Element e = 0; e < b; ++e) {
    scr.start[e] = static_cast<std::uint32_t>(scr.flat.size());
    scr.flat.push_back(color[e]);
    for (Element w : adj[e]) {
      scr.flat.push_back(color[w]);
    }
    std::sort(scr.flat.begin() + scr.start[e] + 1, scr.flat.end());
  }
  scr.start[b] = static_cast<std::uint32_t>(scr.flat.size());
  scr.order.resize(b);
  for (std::uint32_t i = 0; i < b; ++i) {
    scr.order[i] = i;
  }
  auto key_less = [&scr](std::uint32_t x, std::uint32_t y) {
    return std::lexicographical_compare(
        scr.flat.begin() + scr.start[x], scr.flat.begin() + scr.start[x + 1],
        scr.flat.begin() + scr.start[y], scr.flat.begin() + scr.start[y + 1]);
  };
  std::sort(scr.order.begin(), scr.order.end(), key_less);
  std::size_t classes = 0;
  for (std::size_t i = 0; i < b; ++i) {
    if (i > 0 && key_less(scr.order[i - 1], scr.order[i])) {
      ++classes;
    }
    color[scr.order[i]] = static_cast<std::uint32_t>(classes);
  }
  return b == 0 ? 0 : classes + 1;
}

struct CanonContext {
  const Structure* s = nullptr;
  const Tuple* distinguished = nullptr;
  const Adjacency* adj = nullptr;
  std::size_t budget = kCanonPassBudget;
  bool exhausted = false;
  CanonicalCode best;
  bool have_best = false;
  RefineScratch scratch;
};

std::size_t RefineToStable(CanonContext& ctx, std::vector<std::uint32_t>& color,
                           std::size_t classes) {
  while (true) {
    if (ctx.budget == 0) {
      ctx.exhausted = true;
      return classes;
    }
    --ctx.budget;
    const std::size_t next = CanonRefinePass(*ctx.adj, color, ctx.scratch);
    if (next == classes) {
      return classes;
    }
    classes = next;
  }
}

// Serializes the structure under the relabeling e -> label[e] (a discrete
// coloring, i.e. a bijection onto 0..b-1). Relabeled tuples are sorted, so
// the words depend only on the abstract structure and the relabeling.
CanonicalCode SerializeUnder(const Structure& s, const Tuple& distinguished,
                             const std::vector<std::uint32_t>& label) {
  CanonicalCode code;
  code.push_back(static_cast<std::uint32_t>(s.domain_size()));
  for (std::size_t r = 0; r < s.signature().relation_count(); ++r) {
    const Relation& rel = s.relation(r);
    const std::size_t a = rel.arity();
    code.push_back(static_cast<std::uint32_t>(a));
    code.push_back(static_cast<std::uint32_t>(rel.size()));
    if (a <= 8) {
      // Labels are < kCanonMaxDomain <= 256, so a whole tuple packs into
      // one u64 word (most-significant component first); numeric order of
      // the words is the lexicographic order of the relabeled tuples, and
      // sorting words skips the per-tuple vector allocations.
      std::vector<std::uint64_t> packed;
      packed.reserve(rel.size());
      for (const auto t : rel.rows()) {
        std::uint64_t w = 0;
        for (Element x : t) {
          w = (w << 8) | label[x];
        }
        packed.push_back(w);
      }
      std::sort(packed.begin(), packed.end());
      for (std::uint64_t w : packed) {
        for (std::size_t i = 0; i < a; ++i) {
          code.push_back(
              static_cast<std::uint32_t>((w >> (8 * (a - 1 - i))) & 0xff));
        }
      }
    } else {
      std::vector<Tuple> mapped;
      mapped.reserve(rel.size());
      for (const auto t : rel.rows()) {
        Tuple m(t.size());
        for (std::size_t i = 0; i < t.size(); ++i) {
          m[i] = label[t[i]];
        }
        mapped.push_back(std::move(m));
      }
      std::sort(mapped.begin(), mapped.end());
      for (const Tuple& t : mapped) {
        for (Element v : t) {
          code.push_back(v);
        }
      }
    }
  }
  for (std::size_t c = 0; c < s.signature().constant_count(); ++c) {
    std::optional<Element> v = s.constant(c);
    code.push_back(v.has_value() ? label[*v] + 1 : 0);
  }
  code.push_back(static_cast<std::uint32_t>(distinguished.size()));
  for (Element d : distinguished) {
    code.push_back(label[d]);
  }
  return code;
}

void CanonSearch(CanonContext& ctx, std::vector<std::uint32_t> color,
                 std::size_t classes) {
  if (ctx.exhausted) {
    return;
  }
  const std::size_t b = color.size();
  if (classes == b) {
    CanonicalCode code = SerializeUnder(*ctx.s, *ctx.distinguished, color);
    if (!ctx.have_best || code < ctx.best) {
      ctx.best = std::move(code);
      ctx.have_best = true;
    }
    return;
  }
  // Individualize each member of the first (lowest-color) non-singleton
  // cell. Exploring every branch keeps the certificate — and the total
  // pass count — independent of the input's element numbering.
  std::vector<std::uint32_t> count(b, 0);
  for (std::uint32_t c : color) {
    ++count[c];
  }
  std::uint32_t cell = 0;
  while (count[cell] <= 1) {
    ++cell;
  }
  for (Element e = 0; e < b; ++e) {
    if (color[e] != cell) {
      continue;
    }
    std::vector<std::uint32_t> child = color;
    for (Element x = 0; x < b; ++x) {
      if (child[x] > cell || (child[x] == cell && x != e)) {
        ++child[x];
      }
    }
    const std::size_t child_classes = RefineToStable(ctx, child, classes + 1);
    if (ctx.exhausted) {
      return;
    }
    CanonSearch(ctx, std::move(child), child_classes);
    if (ctx.exhausted) {
      return;
    }
  }
}

// Initial coloring: one-pass atomic profile (per relation/position
// occurrence counts plus a repeated-entry count), constant marks, and the
// Gaifman distance to each distinguished element. All isomorphism-invariant
// and — thanks to the distance components — already discrete on many
// neighborhoods (every singleton-center ball of a path or cycle).
// Dense-ranks the rows of a b x width row-major matrix after folding each
// row to a scalar hash — the sort compares one word per element instead of
// a width-long lexicographic walk. The hash is a function of the row, so
// the resulting partition (and its order) is as isomorphism-invariant as
// the rows themselves; a hash collision can only merge two classes, which
// coarsens the initial coloring identically on isomorphic inputs and is
// repaired by refinement and the individualization search.
std::size_t RankFlatRows(const std::vector<std::size_t>& flat, std::size_t b,
                         std::size_t width, std::vector<std::uint32_t>& color) {
  std::vector<std::size_t> key(b);
  for (std::size_t e = 0; e < b; ++e) {
    std::size_t h = width;
    for (std::size_t i = 0; i < width; ++i) {
      HashCombine(h, flat[e * width + i]);
    }
    key[e] = h;
  }
  return DenseRank(key, color);
}

std::size_t InitialColors(const Structure& s, const Tuple& distinguished,
                          const Adjacency& adj,
                          std::vector<std::uint32_t>& color) {
  const std::size_t b = s.domain_size();
  // One flat row of key components per element: per relation an occurrence
  // count per position plus a repeated-entry count, one mark per constant,
  // and three distance columns per distinguished element.
  std::size_t width = s.signature().constant_count() + 3 * distinguished.size();
  for (std::size_t r = 0; r < s.signature().relation_count(); ++r) {
    width += s.relation(r).arity() + 1;
  }
  std::vector<std::size_t> flat(b * width, 0);
  std::size_t col = 0;
  for (std::size_t r = 0; r < s.signature().relation_count(); ++r) {
    const Relation& rel = s.relation(r);
    for (const auto t : rel.rows()) {
      for (std::size_t i = 0; i < t.size(); ++i) {
        ++flat[t[i] * width + col + i];
        for (std::size_t j = 0; j < i; ++j) {
          if (t[j] == t[i]) {
            ++flat[t[i] * width + col + rel.arity()];
            break;
          }
        }
      }
    }
    col += rel.arity() + 1;
  }
  for (std::size_t c = 0; c < s.signature().constant_count(); ++c) {
    std::optional<Element> v = s.constant(c);
    if (v.has_value()) {
      flat[*v * width + col] = 1;
    }
    ++col;
  }
  // Directed reachability distances, forward and backward: tuple positions
  // orient edges (earlier component -> later component), which the
  // undirected Gaifman adjacency erases. Both orientations are preserved
  // by isomorphisms, and on directed paths and cycles they split the
  // distance-symmetric pairs {v-k, v+k} that undirected refinement can
  // only separate with a pass per layer plus individualization branches.
  Adjacency fwd(b), bwd(b);
  for (std::size_t r = 0; r < s.signature().relation_count(); ++r) {
    for (const auto t : s.relation(r).rows()) {
      for (std::size_t i = 0; i < t.size(); ++i) {
        for (std::size_t j = i + 1; j < t.size(); ++j) {
          if (t[i] != t[j]) {
            fwd[t[i]].push_back(t[j]);
            bwd[t[j]].push_back(t[i]);
          }
        }
      }
    }
  }
  for (Element d : distinguished) {
    std::vector<std::size_t> dist = BfsDistances(adj, {d});
    std::vector<std::size_t> dist_fwd = BfsDistances(fwd, {d});
    std::vector<std::size_t> dist_bwd = BfsDistances(bwd, {d});
    for (Element e = 0; e < b; ++e) {
      std::size_t* row = flat.data() + e * width + col;
      row[0] = dist[e];
      row[1] = dist_fwd[e];
      row[2] = dist_bwd[e];
    }
    col += 3;
  }
  std::size_t classes = RankFlatRows(flat, b, width, color);
  // Seed with BFS distances from singleton classes (lowest colors first,
  // capped): an isomorphism maps a singleton class's member to its
  // counterpart's, so these distances are isomorphism-invariant — and they
  // make e.g. truncated path balls discrete immediately, where plain
  // refinement needs a pass per layer to propagate the endpoint asymmetry.
  // Re-ranking (current color, seed distances) rows gives exactly the rank
  // of the extended key rows: dense ranks are order-preserving, so the
  // color column orders like the full original row.
  if (classes > 0 && classes < b) {
    constexpr std::size_t kMaxSingletonSeeds = 4;
    std::vector<std::uint32_t> size_of(classes, 0);
    for (std::uint32_t c : color) {
      ++size_of[c];
    }
    std::vector<Element> member(classes, 0);
    for (Element e = 0; e < b; ++e) {
      member[color[e]] = e;
    }
    std::vector<Element> seed_elems;
    for (std::size_t c = 0;
         c < classes && seed_elems.size() < kMaxSingletonSeeds; ++c) {
      if (size_of[c] != 1) {
        continue;
      }
      // Distances from distinguished elements are already key components.
      if (std::find(distinguished.begin(), distinguished.end(), member[c]) !=
          distinguished.end()) {
        continue;
      }
      seed_elems.push_back(member[c]);
    }
    if (!seed_elems.empty()) {
      const std::size_t w2 = 1 + seed_elems.size();
      std::vector<std::size_t> flat2(b * w2, 0);
      for (Element e = 0; e < b; ++e) {
        flat2[e * w2] = color[e];
      }
      for (std::size_t k = 0; k < seed_elems.size(); ++k) {
        std::vector<std::size_t> dist = BfsDistances(adj, {seed_elems[k]});
        for (Element e = 0; e < b; ++e) {
          flat2[e * w2 + 1 + k] = dist[e];
        }
      }
      classes = RankFlatRows(flat2, b, w2, color);
    }
  }
  return classes;
}

}  // namespace

std::optional<CanonicalCode> CanonicalNeighborhoodCode(const Neighborhood& n) {
  const Structure& s = n.structure;
  const std::size_t b = s.domain_size();
  if (b > kCanonMaxDomain) {
    return std::nullopt;
  }
  Adjacency adj = GaifmanAdjacency(s);
  CanonContext ctx;
  ctx.s = &s;
  ctx.distinguished = &n.distinguished;
  ctx.adj = &adj;
  std::vector<std::uint32_t> color(b, 0);
  std::size_t classes = InitialColors(s, n.distinguished, adj, color);
  classes = RefineToStable(ctx, color, classes);
  if (!ctx.exhausted) {
    CanonSearch(ctx, std::move(color), classes);
  }
  if (ctx.exhausted) {
    return std::nullopt;
  }
  // Prefix the certificate with a vocabulary fingerprint: codes are only
  // comparable between structures over equal signatures, and the index maps
  // are keyed by the code alone.
  std::size_t fp = s.signature().relation_count();
  for (const RelationSymbol& sym : s.signature().relations()) {
    HashCombine(fp, sym.name);
    HashCombine(fp, sym.arity);
  }
  for (const std::string& name : s.signature().constant_names()) {
    HashCombine(fp, name);
  }
  CanonicalCode out;
  out.reserve(ctx.best.size() + 2);
  out.push_back(static_cast<std::uint32_t>(fp));
  out.push_back(static_cast<std::uint32_t>(fp >> 32));
  out.insert(out.end(), ctx.best.begin(), ctx.best.end());
  return out;
}

std::vector<Element> Ball(const Adjacency& gaifman, const Tuple& center,
                          std::size_t radius) {
  std::vector<Element> sources;
  sources.reserve(center.size());
  for (Element e : center) {
    FMTK_CHECK(e < gaifman.size()) << "ball center outside domain";
    sources.push_back(e);
  }
  std::vector<std::size_t> dist = BfsDistances(gaifman, sources);
  std::vector<Element> ball;
  for (Element v = 0; v < gaifman.size(); ++v) {
    if (dist[v] != kUnreachable && dist[v] <= radius) {
      ball.push_back(v);
    }
  }
  return ball;
}

Neighborhood NeighborhoodOf(const Structure& s, const Adjacency& gaifman,
                            const Tuple& center, std::size_t radius) {
  std::vector<Element> ball = Ball(gaifman, center, radius);
  Structure induced = InducedSubstructure(s, ball);
  // Renumber the distinguished tuple into ball coordinates.
  Tuple distinguished;
  distinguished.reserve(center.size());
  for (Element e : center) {
    auto it = std::lower_bound(ball.begin(), ball.end(), e);
    FMTK_CHECK(it != ball.end() && *it == e) << "center must lie in its ball";
    distinguished.push_back(static_cast<Element>(it - ball.begin()));
  }
  return Neighborhood{std::move(induced), std::move(distinguished)};
}

bool NeighborhoodsIsomorphic(const Neighborhood& a, const Neighborhood& b) {
  return AreIsomorphic(a.structure, b.structure, a.distinguished,
                       b.distinguished);
}

NeighborhoodTypeIndex::TypeId NeighborhoodTypeIndex::TypeOf(
    const Neighborhood& n) {
  PassMemo memo;
  const std::size_t hash = ContentHash(n);
  if (const std::optional<TypeId> id =
          FindContent(memo, hash, [&n](const Neighborhood& content) {
            return IdenticalContent(content, n);
          })) {
    return *id;
  }
  return Intern(memo, Neighborhood(n), hash);
}

NeighborhoodTypeIndex::TypeId NeighborhoodTypeIndex::Intern(
    PassMemo& memo, Neighborhood&& n, std::size_t hash) {
  TypeId id = reps_.size();
  bool known = false;
  std::optional<CanonicalCode> code;
  if (options_.use_canonical_codes) {
    code = CanonicalNeighborhoodCode(n);
  }
  if (code.has_value()) {
    ++stats_.canon_codes;
    const auto [slot, inserted] = code_map_.TryEmplace(std::move(*code), id);
    id = *slot;
    known = !inserted;
    stats_.canon_hits += known ? 1 : 0;
  } else {
    // Bucket by the expensive invariant, pre-filter candidates by the cheap
    // signature, then the exact isomorphism test.
    std::vector<std::size_t> signature = CheapSignature(n);
    std::vector<BucketEntry>& bucket =
        buckets_[IsomorphismInvariant(n.structure, n.distinguished)];
    for (const BucketEntry& entry : bucket) {
      if (entry.signature != signature) {
        ++stats_.signature_rejects;
        continue;
      }
      ++stats_.iso_tests;
      if (NeighborhoodsIsomorphic(reps_[entry.id], n)) {
        id = entry.id;
        known = true;
        break;
      }
    }
    if (!known) {
      bucket.push_back(BucketEntry{id, std::move(signature)});
    }
  }
  const bool cache = cached_ < options_.max_exemplars;
  std::deque<Neighborhood>& store =
      !known ? reps_ : (cache ? exemplars_ : memo.contents_);
  store.push_back(std::move(n));
  (cache ? exact_cache_ : memo.rows_)[hash].emplace_back(&store.back(), id);
  cached_ += cache ? 1 : 0;
  memo.last_hash_ = hash;
  return id;
}

const Neighborhood& NeighborhoodTypeIndex::representative(TypeId id) const {
  FMTK_CHECK(id < reps_.size()) << "unknown neighborhood type id";
  return reps_[id];
}

std::map<NeighborhoodTypeIndex::TypeId, std::size_t>
NeighborhoodTypeHistogram(const Structure& s, std::size_t radius,
                          NeighborhoodTypeIndex& index) {
  LocalityEngine engine(s);
  std::map<NeighborhoodTypeIndex::TypeId, std::size_t> histogram;
  for (Element v = 0; v < s.domain_size(); ++v) {
    Neighborhood n = engine.NeighborhoodAt({v}, radius);
    ++histogram[index.TypeOf(n)];
  }
  return histogram;
}

}  // namespace fmtk
