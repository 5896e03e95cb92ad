#ifndef FMTK_STRUCTURES_BULK_LOAD_H_
#define FMTK_STRUCTURES_BULK_LOAD_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/diagnostics.h"
#include "base/result.h"
#include "base/status.h"
#include "structures/structure.h"

namespace fmtk {

/// Streaming bulk loaders for big structures: whitespace/comma edge lists
/// (the format every public graph dataset ships in) and a length-prefixed
/// binary structure format. Both read in ~1 MiB chunks — no per-line
/// getline on the hot path — validate as they scan, and construct relations
/// through RelationBuilder's sorted-run path, so a 10^7-edge file becomes a
/// fully indexed Relation without 10^7 incremental Add() resyncs.
///
/// Failure paths report structured FMTK2xx diagnostics (truncated input,
/// malformed records, out-of-range elements) through the optional
/// DiagnosticSink and fail with the matching Status; recoverable oddities
/// (duplicate edges, an empty relation) load fine but leave warnings.
/// These live in the fmtk_bulk library (not fmtk_structures) because they
/// report through the analyzer's sink types.

struct EdgeListOptions {
  /// Name of the binary edge relation of the loaded graph's signature.
  std::string relation_name = "E";

  /// kIntern: vertex tokens are arbitrary strings, mapped to dense elements
  /// in first-appearance order (LoadedGraph::ids keeps the mapping).
  /// kNumeric: tokens must already be decimal element ids.
  enum class IdMode { kIntern, kNumeric };
  IdMode id_mode = IdMode::kIntern;

  /// kNumeric only: the declared domain size. Ids >= it are FMTK203 errors.
  /// 0 means "infer as max id + 1".
  std::size_t domain_size = 0;

  /// Also insert the reversed edge (undirected graph as a symmetric E).
  bool undirected = false;
};

struct BulkLoadStats {
  std::size_t records = 0;     // Non-comment, non-blank input lines.
  std::size_t edges = 0;       // Distinct tuples in the built relation.
  std::size_t duplicates = 0;  // Input rows collapsed by set semantics.
  std::size_t bytes = 0;       // Input bytes consumed.
};

struct LoadedGraph {
  Structure structure;          // Signature {relation_name/2}.
  std::vector<std::string> ids;  // kIntern: element -> original token.
  BulkLoadStats stats;
};

/// Parses an edge list from an in-memory buffer. Lines hold two vertex
/// tokens separated by spaces, tabs, or commas; '#' and '%' start comments.
Result<LoadedGraph> LoadEdgeListText(std::string_view text,
                                     const EdgeListOptions& options = {},
                                     DiagnosticSink* sink = nullptr);

/// Streams an edge list from a file in chunked reads.
Result<LoadedGraph> LoadEdgeListFile(const std::string& path,
                                     const EdgeListOptions& options = {},
                                     DiagnosticSink* sink = nullptr);

/// The length-prefixed binary structure format ("FMTKBIN1"): domain size,
/// then per relation its name, arity, and raw little-endian tuple block,
/// then per constant its name and an explicit presence byte. Unlike the
/// textual format (io.h), uninterpreted constants survive the round trip —
/// SerializeStructureBinary/ParseStructureBinary is lossless for every
/// structure. Parsed relations build their column indexes on first use.
std::string SerializeStructureBinary(const Structure& s);
Result<Structure> ParseStructureBinary(std::string_view bytes,
                                       DiagnosticSink* sink = nullptr);
Status WriteStructureBinaryFile(const Structure& s, const std::string& path);
Result<Structure> ReadStructureBinaryFile(const std::string& path,
                                          DiagnosticSink* sink = nullptr);

}  // namespace fmtk

#endif  // FMTK_STRUCTURES_BULK_LOAD_H_
