#ifndef FMTK_PLANNER_PLAN_CACHE_H_
#define FMTK_PLANNER_PLAN_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "analysis/datalog_analyzer.h"
#include "analysis/fo_analyzer.h"
#include "analysis/program_optimizer.h"
#include "base/flat_hash.h"
#include "base/hash.h"
#include "base/result.h"
#include "core/algorithmic/bounded_degree.h"
#include "datalog/compiled_engine.h"
#include "datalog/program.h"
#include "eval/compiled_eval.h"
#include "planner/canonical.h"
#include "planner/fo_to_datalog.h"
#include "structures/signature.h"
#include "structures/structure.h"

namespace fmtk {

/// Exact cache counters (summed across shards; each counter is updated
/// under its shard's mutex, so concurrent hammering still adds up:
/// hits + misses == lookups, insertions - evictions == entries).
struct PlanCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
  std::size_t entries = 0;

  PlanCacheStats& operator+=(const PlanCacheStats& other) {
    hits += other.hits;
    misses += other.misses;
    insertions += other.insertions;
    evictions += other.evictions;
    entries += other.entries;
    return *this;
  }

  /// e.g. "hits=12 misses=3 insertions=3 evictions=0 entries=3".
  std::string ToString() const;
};

/// A sharded, thread-safe LRU map from string keys to shared const values.
/// Shard = Mix64(hash(key)) masked to a power-of-two shard count; each
/// shard holds a recency list plus a FlatHashMap from key to list iterator
/// (std::list iterators are stable across the map's rehashes). Values are
/// handed out as shared_ptr<const V>, so an entry evicted while in use
/// stays alive for its readers.
template <typename V>
class ShardedLruCache {
 public:
  struct Config {
    std::size_t shards = 8;              // rounded up to a power of two
    std::size_t capacity_per_shard = 64; // >= 1
  };

  explicit ShardedLruCache(Config config = {}) {
    std::size_t shard_count = 1;
    while (shard_count < config.shards) {
      shard_count <<= 1;
    }
    capacity_per_shard_ =
        config.capacity_per_shard == 0 ? 1 : config.capacity_per_shard;
    shards_.reserve(shard_count);
    for (std::size_t i = 0; i < shard_count; ++i) {
      shards_.push_back(std::make_unique<Shard>());
    }
  }

  /// Looks `key` up, bumping it to most-recently-used. Exactly one hit or
  /// one miss is counted per call.
  std::shared_ptr<const V> Get(const std::string& key) {
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto* it = shard.index.Find(key);
    if (it == nullptr) {
      ++shard.misses;
      return nullptr;
    }
    ++shard.hits;
    shard.lru.splice(shard.lru.begin(), shard.lru, *it);
    return (*it)->value;
  }

  /// Inserts `value` under `key` unless the key is already present (the
  /// first inserter wins, so racing fills share one plan). Returns the
  /// entry now in the cache. Counts one insertion per entry actually
  /// added and one eviction per LRU entry displaced.
  std::shared_ptr<const V> Insert(const std::string& key,
                                  std::shared_ptr<const V> value) {
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto* existing = shard.index.Find(key);
    if (existing != nullptr) {
      shard.lru.splice(shard.lru.begin(), shard.lru, *existing);
      return (*existing)->value;
    }
    shard.lru.push_front(Entry{key, std::move(value)});
    shard.index.TryEmplace(key, shard.lru.begin());
    ++shard.insertions;
    if (shard.lru.size() > capacity_per_shard_) {
      shard.index.Erase(shard.lru.back().key);
      shard.lru.pop_back();
      ++shard.evictions;
    }
    return shard.lru.front().value;
  }

  PlanCacheStats stats() const {
    PlanCacheStats total;
    for (const auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->mu);
      total.hits += shard->hits;
      total.misses += shard->misses;
      total.insertions += shard->insertions;
      total.evictions += shard->evictions;
      total.entries += shard->lru.size();
    }
    return total;
  }

  std::size_t size() const { return stats().entries; }

  void Clear() {
    for (const auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->mu);
      shard->lru.clear();
      shard->index.clear();
      shard->hits = shard->misses = shard->insertions = shard->evictions = 0;
    }
  }

  std::size_t shard_count() const { return shards_.size(); }
  std::size_t capacity_per_shard() const { return capacity_per_shard_; }

 private:
  struct Entry {
    std::string key;
    std::shared_ptr<const V> value;
  };
  struct Shard {
    mutable std::mutex mu;
    std::list<Entry> lru;  // front = most recently used
    FlatHashMap<std::string, typename std::list<Entry>::iterator> index;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;
  };

  Shard& ShardFor(const std::string& key) {
    const std::uint64_t h = Mix64(ScalarHash(key));
    return *shards_[static_cast<std::size_t>(h) & (shards_.size() - 1)];
  }

  std::vector<std::unique_ptr<Shard>> shards_;
  std::size_t capacity_per_shard_ = 64;
};

/// A Datalog engine bound to one structure, identified by the structure's
/// process-unique uid + mutation generation — never by address, so a freed
/// or mutated structure can only miss, not alias.
struct BoundDatalogEngine {
  std::uint64_t structure_uid = 0;
  std::uint64_t structure_generation = 0;
  CompiledDatalogEngine engine;
};

/// Everything the cache keeps per canonical FO query: the compiled plan
/// (structure-independent; Bind per evaluation is cheap), the canonical
/// analysis measures the router consumes, and lazily built alternative
/// engines (bounded-degree evaluator, Datalog lowering + per-structure
/// engine memo) shared across all evaluations of this query.
struct CachedFormulaPlan {
  CachedFormulaPlan(CanonicalQuery canonical_in, CompiledFormula plan_in,
                    FoAnalysis analysis_in)
      : canonical(std::move(canonical_in)),
        plan(std::move(plan_in)),
        analysis(std::move(analysis_in)) {}

  CanonicalQuery canonical;
  CompiledFormula plan;
  /// Analysis of the *canonical* formula (its measures — rank, width,
  /// safe-range — are what the cost model keys on; width can only shrink
  /// under canonicalization, never grow).
  FoAnalysis analysis;
  /// Fragment flags for routing, computed once from the canonical AST.
  bool existential_positive = false;
  bool has_constant_terms = false;
  bool has_counting = false;

  /// Serializes lazy engine construction AND evaluation through the
  /// stateful engines (BoundedDegreeEvaluator's verdict cache mutates;
  /// CompiledDatalogEngine::Evaluate is not proven concurrency-safe).
  /// The compiled FO plan itself is immutable and needs no lock.
  mutable std::mutex engines_mu;
  mutable std::optional<BoundedDegreeEvaluator> bounded_degree;
  mutable bool bounded_degree_failed = false;
  mutable std::optional<FoDatalogTranslation> datalog;
  mutable bool datalog_attempted = false;
  mutable std::vector<BoundDatalogEngine> datalog_engines;

};

/// Per cached Datalog program: the canonical program (stable address — the
/// compiled engines hold pointers into it), recursion classification for
/// routing/explain, the optimizer's pre-pass output (when requested: the
/// rewritten program the engines actually bind, plus rewrite provenance,
/// strata, boundedness and any FO lowering for routing), and the
/// per-structure engine memo.
struct CachedDatalogPlan {
  CachedDatalogPlan(DatalogProgram program_in, DatalogAnalysis analysis_in)
      : program(std::move(program_in)), analysis(std::move(analysis_in)) {}

  DatalogProgram program;
  DatalogAnalysis analysis;
  /// Set when the plan was built with optimization: engines bind
  /// optimized->program instead of `program`. Cached alongside the plan so
  /// a warm hit pays zero optimizer work.
  std::optional<OptimizedDatalogProgram> optimized;

  /// The program whose rules the engines execute.
  const DatalogProgram& ExecProgram() const {
    return optimized.has_value() ? optimized->program : program;
  }

  mutable std::mutex engines_mu;
  mutable std::vector<BoundDatalogEngine> engines;
};

/// Outcome detail of one cache access (for --explain and tests).
struct PlanCacheLookup {
  /// The plan came out of the cache (either layer) without recompiling.
  bool hit = false;
  /// The exact-text front layer hit: parse *and* canonicalization skipped.
  bool text_hit = false;
  std::string key;  // the canonical (second-layer) key
};

/// What to precompute on a Datalog plan miss. The outputs and the optimize
/// flag are part of the cache key: the same program optimized against
/// different output roots yields different rewritten rules (dead-rule
/// elimination and magic sets are liveness-relative).
struct DatalogPlanOptions {
  /// Output predicates — the same roots fmtk_lint --output feeds FMTK106.
  std::vector<std::string> outputs;
  /// Run the program optimizer pre-pass and bind engines to its output.
  bool optimize = true;
};

/// The compiled-plan cache fronting CompiledFormula::Compile and the
/// Datalog rule-lowering path. Two layers per entry kind:
///
///   L1 "t:<raw text>"       — exact text memo: repeat of the same query
///                             string skips parse, analysis, canonicalization
///                             and compilation outright.
///   L2 "c:<canonical text>" — canonical key: α-variants / reordered
///                             commutative connectives / foldable constants
///                             unify onto one compiled plan.
///
/// Both layers store the same shared CachedFormulaPlan, and both keys embed
/// the exact signature text, so equal fingerprints can never alias plans
/// across vocabularies. Thread-safe; all counters exact.
class PlanCache {
 public:
  struct Config {
    std::size_t shards = 8;
    std::size_t capacity_per_shard = 64;
  };

  PlanCache() : PlanCache(Config{}) {}
  explicit PlanCache(Config config)
      : formulas_({config.shards, config.capacity_per_shard}),
        programs_({config.shards, config.capacity_per_shard}) {}

  /// Canonicalize + look up + compile-on-miss. The formula must already be
  /// vocabulary-valid (EvaluateAuto checks the *original* formula against
  /// the signature first, since folding can erase invalid dead branches).
  Result<std::shared_ptr<const CachedFormulaPlan>> GetFormulaPlan(
      const Formula& f, const Signature& signature,
      PlanCacheLookup* lookup = nullptr);

  /// Text front door: exact-text layer first, then parse + GetFormulaPlan.
  Result<std::shared_ptr<const CachedFormulaPlan>> GetFormulaPlanFromText(
      std::string_view text, const Signature& signature,
      PlanCacheLookup* lookup = nullptr);

  /// Canonicalize + look up + analyze-on-miss the Datalog rule-lowering
  /// input, running the static optimizer pre-pass when asked. (Rule
  /// compilation proper is per-structure: it happens when an engine is
  /// bound and memoized on the plan's engine memo.)
  Result<std::shared_ptr<const CachedDatalogPlan>> GetDatalogPlan(
      const DatalogProgram& program, const Signature& signature,
      const DatalogPlanOptions& options = {},
      PlanCacheLookup* lookup = nullptr);

  Result<std::shared_ptr<const CachedDatalogPlan>> GetDatalogPlanFromText(
      std::string_view text, const Signature& signature,
      const DatalogPlanOptions& options = {},
      PlanCacheLookup* lookup = nullptr);

  PlanCacheStats formula_stats() const { return formulas_.stats(); }
  PlanCacheStats datalog_stats() const { return programs_.stats(); }
  /// Combined counters across both sections.
  PlanCacheStats stats() const;

  void Clear() {
    formulas_.Clear();
    programs_.Clear();
  }

 private:
  ShardedLruCache<CachedFormulaPlan> formulas_;
  ShardedLruCache<CachedDatalogPlan> programs_;
};

/// The process-global cache EvaluateAuto uses when none is supplied.
PlanCache& DefaultPlanCache();

/// Binds (or returns the memoized) compiled Datalog engine for `edb` from
/// `memo`, keyed by (uid, generation). Caller must hold the mutex guarding
/// `memo`; `program` must outlive the memo entries. Keeps at most 4
/// structures per plan (LRU).
Result<CompiledDatalogEngine> GetOrBindDatalogEngine(
    std::vector<BoundDatalogEngine>& memo, const DatalogProgram& program,
    const Structure& edb);

}  // namespace fmtk

#endif  // FMTK_PLANNER_PLAN_CACHE_H_
