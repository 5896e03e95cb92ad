// Seeded input generators. Every structure, query text, program and
// operation sequence the workloads run comes from here, as a pure function
// of the seed: the same seed gives byte-identical inputs on every run.
#ifndef FMTK_PERFBENCH_GEN_H_
#define FMTK_PERFBENCH_GEN_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "structures/signature.h"
#include "structures/structure.h"

namespace perfbench {

/// splitmix64: portable, so a seed means the same inputs with any
/// standard library.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n); n > 0.
  std::size_t Below(std::size_t n) { return static_cast<std::size_t>(Next() % n); }
  /// Uniform in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

/// Derives an independent stream seed from (seed, stream id).
std::uint64_t StreamSeed(std::uint64_t seed, std::uint64_t stream);

/// {E/2, S/1}: a graph with a set of source nodes.
std::shared_ptr<const fmtk::Signature> GraphWithSources();

/// Copies the E relation of `graph` into a {E/2, S/1} structure with the
/// given sources.
fmtk::Structure WithSources(const fmtk::Structure& graph,
                            const std::vector<fmtk::Element>& sources);

/// A sparse random digraph on n nodes with exactly n * out_degree distinct
/// edges (no self-loops), endpoints uniform.
fmtk::Structure RandomSparseGraph(std::size_t n, std::size_t out_degree,
                                  Rng& rng);

/// The same structure with its elements renamed by a random permutation:
/// an isomorphic copy, so every constant-free query answers the same.
fmtk::Structure Relabeled(const fmtk::Structure& s, Rng& rng);

/// A generated FO request: sentence (outputs empty) or output query.
struct FoRequest {
  std::string text;
  std::vector<std::string> outputs;
};

enum FoKind {
  kTriangle = 0,     // ∃ directed triangle (rank 3)
  kDiameter2,        // diameter at most two (rank 3)
  kForallExists,     // guarded ∀∃ chains (rank 2-3)
  kHasSource,        // ∃x with no in-edge (rank 2)
  kRandomRank3,      // logic/random_formula sentences (rank <= 3)
  kTwoPathList,      // 2-path listing, outputs (x, z)
  kTriangleList,     // triangle listing, outputs (x, y, z)
  kHopReach,         // k-hop reachability from S, output (y)
};
const std::vector<std::string>& FoTemplateNames();

/// Renders template `kind` (variant selects chain length etc.) with fresh
/// bound-variable names drawn from `rng`.
FoRequest MakeFoRequest(int kind, int variant, Rng& rng);

/// A random sentence of quantifier rank <= 3 over `signature`.
std::string RandomSentenceText(const fmtk::Signature& signature, Rng& rng);

/// Datalog programs of the checked-in corpora (examples/programs and
/// bench/programs), with bound constants filled in where the corpus
/// program binds one.
struct DatalogRequest {
  std::string text;
  std::vector<std::string> outputs;
};
enum DlKind {
  kReachability = 0,  // examples/programs/reachability.dl
  kBoundedHops,       // examples/programs/bounded_hops.dl
  kSameGeneration,    // examples/programs/same_generation.dl
  kTcBound,           // bench/programs/tc_bound.dl, source constant
  kSgBound,           // bench/programs/sg_bound.dl, bound constant
  kTc,                // linear transitive closure
  kTcNonlinear,       // non-linear transitive closure
};
const std::vector<std::string>& DatalogTemplateNames();
DatalogRequest MakeDatalogRequest(int kind, fmtk::Element constant);

/// Zipf(s = 1) sampler over ranks [0, n): rank r has weight 1 / (r + 1).
class Zipf {
 public:
  explicit Zipf(std::size_t n);
  std::size_t Draw(Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

}  // namespace perfbench

#endif  // FMTK_PERFBENCH_GEN_H_
