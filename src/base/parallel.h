#ifndef FMTK_BASE_PARALLEL_H_
#define FMTK_BASE_PARALLEL_H_

#include <cstddef>

namespace fmtk {

/// Controls the optional std::thread fan-out of the compiled evaluator's
/// outermost quantifier (CompiledEvaluator, EngineKind::kParallel). Off by
/// default; evaluation is then fully deterministic and single-threaded.
/// When enabled, verdicts still match the sequential run — parallelism only
/// changes which branch discovers a decisive answer first, never the answer
/// itself.
struct ParallelPolicy {
  bool enabled = false;
  /// 0 = std::thread::hardware_concurrency().
  std::size_t num_threads = 0;
  /// Fan out only when at least this many top-level work items exist;
  /// smaller problems run sequentially.
  std::size_t min_domain = 64;
};

}  // namespace fmtk

#endif  // FMTK_BASE_PARALLEL_H_
