#ifndef FMTK_STRUCTURES_STRUCTURE_H_
#define FMTK_STRUCTURES_STRUCTURE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "base/result.h"
#include "base/status.h"
#include "structures/relation.h"
#include "structures/signature.h"
#include "structures/structure_stats.h"

namespace fmtk {

/// A finite relational structure (= a database instance in the survey's
/// reading): a domain {0, ..., n-1}, one finite relation per relation symbol
/// of the signature, and an element per constant symbol.
class Structure {
 public:
  /// Creates a structure with empty relations and all constants unset.
  /// `signature` must be non-null.
  Structure(std::shared_ptr<const Signature> signature,
            std::size_t domain_size);

  /// Copies share the (immutable) memoized statistics snapshot but get a
  /// fresh identity: uid() differs, so caches keyed by (uid, generation) —
  /// e.g. the planner's per-structure Datalog engine memo, which holds raw
  /// pointers — never confuse a copy with the original.
  Structure(const Structure& other);
  Structure& operator=(const Structure& other);
  /// Moves also take a fresh uid: engines bound to the source's address
  /// must not be served for the moved-to object.
  Structure(Structure&& other) noexcept;
  Structure& operator=(Structure&& other) noexcept;
  ~Structure() = default;

  const Signature& signature() const { return *signature_; }
  const std::shared_ptr<const Signature>& signature_ptr() const {
    return signature_;
  }
  std::size_t domain_size() const { return domain_size_; }

  /// Relation access by symbol index (fatal on out-of-range).
  const Relation& relation(std::size_t index) const;

  /// Relation access by symbol name; error Status when the name is unknown.
  Result<std::size_t> RelationIndex(std::string_view name) const;

  /// Inserts `tuple` into relation `index`. Element range and arity are
  /// CHECKed; use TryAddTuple for unvalidated input.
  /// Returns false when the tuple was already present.
  bool AddTuple(std::size_t index, const Tuple& tuple);

  /// Convenience: insert by relation name.
  bool AddTuple(std::string_view name, const Tuple& tuple);

  /// Validated insertion for user-supplied data.
  Status TryAddTuple(std::string_view name, Tuple tuple);

  /// Replaces relation `index` wholesale — the bulk-load and incremental-
  /// maintenance install path (a RelationBuilder output or a rebuilt
  /// relation after deletions). Arity must match the signature; the caller
  /// guarantees every element is < domain_size() (the loaders validate
  /// before building).
  void SetRelation(std::size_t index, Relation relation);

  /// In-place mutable access (fatal on out-of-range) — the incremental-
  /// maintenance deletion path, which compacts a relation with
  /// Relation::EraseRows instead of copying it out and back through
  /// SetRelation. The caller owns keeping the contents consistent with the
  /// signature and domain.
  Relation& MutableRelation(std::size_t index);

  /// Constant interpretations.
  void SetConstant(std::size_t index, Element value);
  std::optional<Element> constant(std::size_t index) const;

  /// Total number of tuples across all relations.
  std::size_t TupleCount() const;

  /// Mutation generation: bumped by every mutator (AddTuple, TryAddTuple,
  /// SetRelation, MutableRelation — conservatively, at access time —
  /// and SetConstant). Generation-stamped caches (Stats(), the planner's
  /// engine memos) use it to detect staleness, the way PR 4 stamps the
  /// locality engine's BFS scratch.
  std::uint64_t generation() const { return generation_; }

  /// Process-unique identity, fresh for every constructed/copied/moved-to
  /// structure (never reused, unlike addresses). (uid, generation) is a
  /// safe key for caches that hold pointers into a structure.
  std::uint64_t uid() const { return uid_; }

  /// Gaifman-graph statistics (size, max degree, diameter bound, ...),
  /// memoized against generation(). Cheap after the first call until the
  /// structure is mutated. Thread-safe against concurrent Stats() calls on
  /// an otherwise unmutated structure (mutation concurrent with any read is
  /// a data race, as everywhere else on Structure).
  StructureStats Stats() const;

  /// Two structures are equal when they share equal signatures, equal domain
  /// sizes, equal relations, and equal constant interpretations.
  friend bool operator==(const Structure& a, const Structure& b);

  /// Multi-line description for debugging and examples.
  std::string ToString() const;

 private:
  static std::uint64_t NextUid();

  std::shared_ptr<const Signature> signature_;
  std::size_t domain_size_;
  std::vector<Relation> relations_;
  std::vector<std::optional<Element>> constants_;
  std::uint64_t generation_ = 0;
  std::uint64_t uid_ = NextUid();
  // Memoized Stats() snapshot (null until first computed; replaced, never
  // mutated, so concurrent readers are safe).
  mutable std::atomic<std::shared_ptr<const StructureStats>> stats_cache_{};
};

/// The substructure of `s` induced by `subdomain` (order gives the new
/// element numbering: subdomain[i] becomes element i). Tuples with any
/// component outside `subdomain` are dropped. Constants interpreted outside
/// `subdomain` become unset. Duplicate elements in `subdomain` are a fatal
/// error.
Structure InducedSubstructure(const Structure& s,
                              const std::vector<Element>& subdomain);

/// Disjoint union: B's elements are shifted by A's domain size. The
/// signatures must be equal; constants are taken from A.
Result<Structure> DisjointUnion(const Structure& a, const Structure& b);

}  // namespace fmtk

#endif  // FMTK_STRUCTURES_STRUCTURE_H_
